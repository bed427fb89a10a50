package keys

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestFromBitsRoundTrip(t *testing.T) {
	cases := []string{"", "0", "1", "0101", "11111111", "101010101", "0000000000000001"}
	for _, c := range cases {
		if got := FromBits(c).String(); got != c {
			t.Errorf("FromBits(%q).String() = %q", c, got)
		}
	}
}

func TestFromBitsPanicsOnBadRune(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid rune")
		}
	}()
	FromBits("01x")
}

func TestBitAndAppend(t *testing.T) {
	k := Empty
	want := "110100101"
	for _, r := range want {
		k = k.Append(int(r - '0'))
	}
	if k.String() != want {
		t.Fatalf("appended key = %q, want %q", k.String(), want)
	}
	for i := range want {
		if byte('0'+byte(k.Bit(i))) != want[i] {
			t.Errorf("bit %d = %d", i, k.Bit(i))
		}
	}
}

func TestPrefixAndHasPrefix(t *testing.T) {
	k := FromBits("1101001")
	for i := 0; i <= k.Len(); i++ {
		p := k.Prefix(i)
		if !k.HasPrefix(p) {
			t.Errorf("key should have prefix %q", p)
		}
		if p.Len() != i {
			t.Errorf("prefix length = %d, want %d", p.Len(), i)
		}
	}
	if k.HasPrefix(FromBits("10")) {
		t.Error("1101001 should not have prefix 10")
	}
	if !k.HasPrefix(Empty) {
		t.Error("every key has the empty prefix")
	}
}

func TestCommonPrefixLen(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"1", "0", 0},
		{"101", "100", 2},
		{"1111111111", "1111111110", 9},
		{"10", "1011", 2},
		{"11001100110011", "11001100110011", 14},
	}
	for _, c := range cases {
		if got := FromBits(c.a).CommonPrefixLen(FromBits(c.b)); got != c.want {
			t.Errorf("CommonPrefixLen(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	ordered := []string{"", "0", "00", "01", "011", "1", "10", "101", "11"}
	for i, a := range ordered {
		for j, b := range ordered {
			got := FromBits(a).Compare(FromBits(b))
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("Compare(%q,%q) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestFlip(t *testing.T) {
	k := FromBits("0000")
	f := k.Flip(2)
	if f.String() != "0010" {
		t.Errorf("flip = %q", f.String())
	}
	if k.String() != "0000" {
		t.Error("Flip must not mutate the receiver")
	}
}

func TestSuccessor(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"0", "1", true},
		{"01", "10", true},
		{"1011", "1100", true},
		{"111", "", false},
		{"1010", "1011", true},
	}
	for _, c := range cases {
		got, ok := FromBits(c.in).Successor()
		if ok != c.ok || (ok && got.String() != c.want) {
			t.Errorf("Successor(%q) = %q,%v want %q,%v", c.in, got.String(), ok, c.want, c.ok)
		}
	}
}

func TestHashStringOrderPreserving(t *testing.T) {
	words := []string{"", "ICDE", "ICDE 2005", "ICDE 2006", "VLDB", "a", "aa", "ab", "b", "confname", "year"}
	for i, a := range words {
		for j, b := range words {
			ka, kb := HashString(a), HashString(b)
			cmp := ka.Compare(kb)
			switch {
			case i == j && cmp != 0:
				t.Errorf("HashString(%q) != itself", a)
			case a < b && cmp > 0:
				t.Errorf("order violated: %q < %q but key greater", a, b)
			case a > b && cmp < 0:
				t.Errorf("order violated: %q > %q but key smaller", a, b)
			}
		}
	}
}

func TestHashStringPrefixPreserving(t *testing.T) {
	if !HashString("ICDE 2006").HasPrefix(HashStringPrefix("ICDE")) {
		t.Error("string prefix must yield key prefix")
	}
	if HashString("VLDB").HasPrefix(HashStringPrefix("ICDE")) {
		t.Error("unrelated string must not share the prefix")
	}
}

// Property: order preservation on random strings (the core guarantee the
// overlay's range queries rely on).
func TestHashStringOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		// Truncate to the depth the hash can distinguish.
		if len(a) > MaxDepth/8 {
			a = a[:MaxDepth/8]
		}
		if len(b) > MaxDepth/8 {
			b = b[:MaxDepth/8]
		}
		cmp := HashString(a).Compare(HashString(b))
		switch {
		case a == b:
			return cmp == 0
		case a < b:
			return cmp <= 0
		default:
			return cmp >= 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHashInt64Order(t *testing.T) {
	vals := []int64{math.MinInt64, -1e12, -42, -1, 0, 1, 7, 2005, 2006, 1e12, math.MaxInt64}
	for i := 0; i < len(vals)-1; i++ {
		if HashInt64(vals[i]).Compare(HashInt64(vals[i+1])) >= 0 {
			t.Errorf("HashInt64 order violated between %d and %d", vals[i], vals[i+1])
		}
	}
}

func TestHashFloat64Order(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -0.0, 0.0, 1e-300, 2.5, 2005, 1e300, math.Inf(1)}
	for i := 0; i < len(vals)-1; i++ {
		a, b := HashFloat64(vals[i]), HashFloat64(vals[i+1])
		if vals[i] == vals[i+1] {
			if a.Compare(b) != 0 {
				t.Errorf("equal floats %v,%v map to different keys", vals[i], vals[i+1])
			}
			continue
		}
		if a.Compare(b) >= 0 {
			t.Errorf("HashFloat64 order violated between %v and %v", vals[i], vals[i+1])
		}
	}
}

func TestHashFloat64OrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		cmp := HashFloat64(a).Compare(HashFloat64(b))
		switch {
		case a == b:
			return cmp == 0
		case a < b:
			return cmp < 0
		default:
			return cmp > 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPrefixRange(t *testing.T) {
	r := PrefixRange(FromBits("10"))
	in := []string{"10", "100", "101", "1011111"}
	out := []string{"0", "01", "11", "110"}
	for _, s := range in {
		if !r.Contains(FromBits(s)) {
			t.Errorf("range of prefix 10 should contain %q", s)
		}
	}
	for _, s := range out {
		if r.Contains(FromBits(s)) {
			t.Errorf("range of prefix 10 should not contain %q", s)
		}
	}
}

func TestPrefixRangeAllOnes(t *testing.T) {
	r := PrefixRange(FromBits("111"))
	if r.HiOpen {
		t.Error("all-ones prefix range must be unbounded above")
	}
	if !r.Contains(FromBits("1110")) || !r.Contains(FromBits("1111")) {
		t.Error("all-ones prefix range must contain its extensions")
	}
	if r.Contains(FromBits("110")) {
		t.Error("all-ones prefix range must not contain smaller keys")
	}
}

func TestRangeOverlapsPrefix(t *testing.T) {
	r := Range{Lo: FromBits("0100"), Hi: FromBits("1010"), HiOpen: true}
	overlapping := []string{"", "0", "1", "01", "10", "011", "100"}
	disjoint := []string{"00", "11", "000", "1011", "111"}
	for _, p := range overlapping {
		if !r.OverlapsPrefix(FromBits(p)) {
			t.Errorf("range [0100,1010) should overlap prefix %q", p)
		}
	}
	for _, p := range disjoint {
		if r.OverlapsPrefix(FromBits(p)) {
			t.Errorf("range [0100,1010) should not overlap prefix %q", p)
		}
	}
}

// Property: OverlapsPrefix never reports false for a prefix that actually
// contains an in-range key (no false negatives — routing soundness).
func TestOverlapsPrefixSoundProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randKey := func(n int) Key {
		k := Empty
		for i := 0; i < n; i++ {
			k = k.Append(rng.Intn(2))
		}
		return k
	}
	for iter := 0; iter < 3000; iter++ {
		lo, hi := randKey(8), randKey(8)
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		r := Range{Lo: lo, Hi: hi, HiOpen: true}
		k := randKey(8)
		if !r.Contains(k) {
			continue
		}
		for n := 0; n <= 8; n++ {
			if !r.OverlapsPrefix(k.Prefix(n)) {
				t.Fatalf("range [%s,%s) contains %s but OverlapsPrefix(%s) = false",
					lo, hi, k, k.Prefix(n))
			}
		}
	}
}

// TestRangeWithinPrefixExhaustive: with 5-bit keys as the full depth,
// for every range between bounds of 1–5 bits (or open to the end of
// the key space) and every prefix of up to 5 bits, WithinPrefix(p)
// holds exactly when each full-depth key the range contains has
// prefix p.
func TestRangeWithinPrefixExhaustive(t *testing.T) {
	const w = 5
	key := func(v, n int) Key {
		k := Empty
		for i := n - 1; i >= 0; i-- {
			k = k.Append(v >> i & 1)
		}
		return k
	}
	var all []Key // every key of 0..w bits
	for n := 0; n <= w; n++ {
		for v := 0; v < 1<<n; v++ {
			all = append(all, key(v, n))
		}
	}
	check := func(r Range) {
		n := 0
		for v := 0; v < 1<<w; v++ {
			if r.Contains(key(v, w)) {
				n++
			}
		}
		if n == 0 {
			return
		}
		for _, p := range all {
			want := true
			for v := 0; v < 1<<w && want; v++ {
				k := key(v, w)
				want = !r.Contains(k) || k.HasPrefix(p)
			}
			if got := r.WithinPrefix(p); got != want {
				t.Fatalf("[%s,%s open=%v).WithinPrefix(%q) = %v, want %v", r.Lo, r.Hi, r.HiOpen, p, got, want)
			}
		}
	}
	for _, lo := range all[1:] {
		check(Range{Lo: lo})
		for _, hi := range all[1:] {
			check(Range{Lo: lo, Hi: hi, HiOpen: true})
		}
	}
}

func TestStringRange(t *testing.T) {
	r := StringRange("ICDE", "ICDF")
	if !r.Contains(HashString("ICDE 2006")) {
		t.Error("ICDE 2006 should be in [ICDE, ICDF)")
	}
	if r.Contains(HashString("VLDB")) {
		t.Error("VLDB should not be in [ICDE, ICDF)")
	}
	unbounded := StringRange("x", "")
	if unbounded.HiOpen {
		t.Error("empty hi must produce an unbounded range")
	}
}

func TestFromBytesMasksTrailingBits(t *testing.T) {
	a := FromBytes([]byte{0xFF}, 4)
	b := FromBytes([]byte{0xF0}, 4)
	if !a.Equal(b) {
		t.Error("trailing bits must be masked so equal prefixes compare equal")
	}
}

func TestEncodeFloatOrdered(t *testing.T) {
	vals := []float64{math.Inf(-1), -7.5, -1, 0, 1, 2.5, 2006, math.Inf(1)}
	for i := 0; i < len(vals)-1; i++ {
		a := string(EncodeFloatOrdered(vals[i]))
		b := string(EncodeFloatOrdered(vals[i+1]))
		if !(a < b) {
			t.Errorf("byte order violated between %v and %v", vals[i], vals[i+1])
		}
	}
}

func TestKeyStringBuilderMatchesBits(t *testing.T) {
	var sb strings.Builder
	k := FromBits("1001110")
	for i := 0; i < k.Len(); i++ {
		sb.WriteByte('0' + byte(k.Bit(i)))
	}
	if sb.String() != k.String() {
		t.Errorf("String() mismatch: %q vs %q", sb.String(), k.String())
	}
}

func BenchmarkHashString(b *testing.B) {
	for i := 0; i < b.N; i++ {
		HashString("av:confname#ICDE 2006 - Workshops")
	}
}

func BenchmarkCompare(b *testing.B) {
	x := HashString("av:confname#ICDE 2006 - Workshops")
	y := HashString("av:confname#ICDE 2005")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Compare(y)
	}
}
