// Package keys implements UniStore's binary key space and the
// order-preserving (prefix-preserving) hash function that P-Grid uses to
// place data.
//
// A Key is a finite string of bits. Peers in the P-Grid overlay are
// responsible for a prefix of the key space; triples are inserted under
// keys derived from the triple's index fields. Because the hash is
// order-preserving (lexicographically smaller strings map to
// lexicographically smaller keys), range and prefix queries on the
// original data translate directly into prefix operations on keys —
// the property the paper contrasts with Chord-style uniform hashing.
package keys

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Key is an immutable bit string, most-significant bit first.
// The zero value is the empty key (the root of the key space).
type Key struct {
	bits []byte // packed, MSB first; bits beyond n are zero
	n    int    // number of valid bits
}

// MaxDepth is the maximum number of bits a key derived from data may
// carry. 256 bits comfortably exceeds any realistic trie depth while
// keeping keys comparable at fixed cost.
const MaxDepth = 256

// Empty is the empty key (zero bits): the whole key space.
var Empty = Key{}

// FromBits builds a key from a string of '0' and '1' runes.
// It panics on any other rune; it is intended for tests and literals.
func FromBits(s string) Key {
	k := Key{bits: make([]byte, (len(s)+7)/8), n: len(s)}
	for i, r := range s {
		switch r {
		case '0':
		case '1':
			k.bits[i/8] |= 1 << (7 - uint(i%8))
		default:
			panic(fmt.Sprintf("keys: invalid bit rune %q in %q", r, s))
		}
	}
	return k
}

// FromBytes builds a key from raw bytes, using nbits bits of them.
func FromBytes(b []byte, nbits int) Key {
	if nbits < 0 || nbits > len(b)*8 {
		panic(fmt.Sprintf("keys: nbits %d out of range for %d bytes", nbits, len(b)))
	}
	nb := (nbits + 7) / 8
	k := Key{bits: make([]byte, nb), n: nbits}
	copy(k.bits, b[:nb])
	// Mask trailing bits so Equal/Compare can rely on zeroed padding.
	if rem := nbits % 8; rem != 0 && nb > 0 {
		k.bits[nb-1] &= byte(0xFF << (8 - uint(rem)))
	}
	return k
}

// Len reports the number of bits in the key.
func (k Key) Len() int { return k.n }

// IsEmpty reports whether the key has zero bits.
func (k Key) IsEmpty() bool { return k.n == 0 }

// Bit returns the i-th bit (0 or 1). It panics if i is out of range.
func (k Key) Bit(i int) int {
	if i < 0 || i >= k.n {
		panic(fmt.Sprintf("keys: bit index %d out of range [0,%d)", i, k.n))
	}
	if k.bits[i/8]&(1<<(7-uint(i%8))) != 0 {
		return 1
	}
	return 0
}

// Append returns a new key with bit b (0 or 1) appended.
func (k Key) Append(b int) Key {
	nb := (k.n + 8) / 8
	bits := make([]byte, nb)
	copy(bits, k.bits)
	if b != 0 {
		bits[k.n/8] |= 1 << (7 - uint(k.n%8))
	}
	return Key{bits: bits, n: k.n + 1}
}

// Prefix returns the first n bits of the key. It panics if n exceeds Len.
func (k Key) Prefix(n int) Key {
	if n < 0 || n > k.n {
		panic(fmt.Sprintf("keys: prefix length %d out of range [0,%d]", n, k.n))
	}
	return FromBytes(k.bits, n)
}

// HasPrefix reports whether p is a prefix of k (every key has the empty
// prefix).
func (k Key) HasPrefix(p Key) bool {
	if p.n > k.n {
		return false
	}
	return k.CommonPrefixLen(p) == p.n
}

// CommonPrefixLen returns the length of the longest common prefix of k
// and o.
func (k Key) CommonPrefixLen(o Key) int {
	max := k.n
	if o.n < max {
		max = o.n
	}
	n := 0
	for n+8 <= max && k.bits[n/8] == o.bits[n/8] {
		n += 8
	}
	for n < max && k.Bit(n) == o.Bit(n) {
		n++
	}
	return n
}

// Compare orders keys lexicographically by bits; a proper prefix sorts
// before any extension of it. Returns -1, 0, or +1.
func (k Key) Compare(o Key) int {
	max := k.n
	if o.n < max {
		max = o.n
	}
	cp := k.CommonPrefixLen(o)
	if cp < max {
		if k.Bit(cp) < o.Bit(cp) {
			return -1
		}
		return 1
	}
	switch {
	case k.n < o.n:
		return -1
	case k.n > o.n:
		return 1
	}
	return 0
}

// Equal reports whether the two keys have identical bits.
func (k Key) Equal(o Key) bool { return k.n == o.n && k.Compare(o) == 0 }

// Flip returns a copy of the key with bit i inverted.
func (k Key) Flip(i int) Key {
	if i < 0 || i >= k.n {
		panic(fmt.Sprintf("keys: flip index %d out of range [0,%d)", i, k.n))
	}
	bits := make([]byte, len(k.bits))
	copy(bits, k.bits)
	bits[i/8] ^= 1 << (7 - uint(i%8))
	return Key{bits: bits, n: k.n}
}

// String renders the key as a string of '0'/'1' runes ("" for Empty).
func (k Key) String() string {
	var sb strings.Builder
	sb.Grow(k.n)
	for i := 0; i < k.n; i++ {
		sb.WriteByte('0' + byte(k.Bit(i)))
	}
	return sb.String()
}

// Bytes returns the packed bit representation (MSB first) and the bit
// count. The returned slice must not be modified.
func (k Key) Bytes() ([]byte, int) { return k.bits, k.n }

// Successor returns the smallest key of the same length strictly greater
// than k, and ok=false if k is the maximum key of its length (all ones).
func (k Key) Successor() (Key, bool) {
	bits := make([]byte, len(k.bits))
	copy(bits, k.bits)
	for i := k.n - 1; i >= 0; i-- {
		mask := byte(1 << (7 - uint(i%8)))
		if bits[i/8]&mask == 0 {
			bits[i/8] |= mask
			return Key{bits: bits, n: k.n}, true
		}
		bits[i/8] &^= mask
	}
	return Key{}, false
}

// --- Order-preserving hashing -----------------------------------------

// HashString maps a string to a key of exactly MaxDepth bits such that
// lexicographic order of strings is preserved: s < t (as byte strings)
// implies HashString(s) <= HashString(t), with equality only when one is
// a prefix of the other beyond MaxDepth/8 bytes. This is the
// prefix-preserving hash the paper attributes to P-Grid: a shared string
// prefix yields a shared key prefix, so substring/range/prefix queries
// route to a contiguous region of the trie.
func HashString(s string) Key {
	nb := MaxDepth / 8
	b := make([]byte, nb)
	copy(b, s)
	return FromBytes(b, MaxDepth)
}

// HashStringPrefix maps a string to a key of min(8*len(s), MaxDepth)
// bits — the key-space region covering all strings with prefix s. Use it
// to derive range bounds for prefix queries.
func HashStringPrefix(s string) Key {
	n := 8 * len(s)
	if n > MaxDepth {
		n = MaxDepth
	}
	return FromBytes([]byte(s), n)
}

// HashUint64 maps an unsigned integer to a 64-bit big-endian key;
// numeric order equals key order.
func HashUint64(v uint64) Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return FromBytes(b[:], 64)
}

// HashInt64 maps a signed integer to a 64-bit key preserving numeric
// order (by offsetting the sign bit).
func HashInt64(v int64) Key {
	return HashUint64(uint64(v) ^ (1 << 63))
}

// HashFloat64 maps a float to a 64-bit key preserving numeric order for
// all finite values (and -Inf < finite < +Inf). NaN maps above +Inf.
func HashFloat64(f float64) Key {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u // negative: flip all bits
	} else {
		u |= 1 << 63 // positive: set sign bit
	}
	return HashUint64(u)
}

// EncodeFloatOrdered returns an 8-byte big-endian encoding of f whose
// lexicographic byte order matches numeric order. It is the byte-level
// counterpart of HashFloat64, used when numbers are embedded inside
// composite string keys.
func EncodeFloatOrdered(f float64) []byte {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		u = ^u
	} else {
		u |= 1 << 63
	}
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], u)
	return b[:]
}

// Range is a half-open interval [Lo, Hi) of the key space, used by
// range queries. An empty Hi means "to the end of the key space".
type Range struct {
	Lo, Hi Key
	// HiOpen reports whether Hi bounds the range; if false, the range
	// extends to the maximum key.
	HiOpen bool
}

// Contains reports whether key k of a stored datum falls in the range.
// The comparison treats k as a point in [Lo, Hi).
func (r Range) Contains(k Key) bool {
	if k.Compare(r.Lo) < 0 {
		return false
	}
	if r.HiOpen && k.Compare(r.Hi) >= 0 {
		return false
	}
	return true
}

// OverlapsPrefix reports whether any key with prefix p can lie in r.
// Used by range routing to prune trie branches.
func (r Range) OverlapsPrefix(p Key) bool {
	// Smallest key with prefix p is p itself (padded with zeros);
	// largest is p padded with ones. Compare against bounds.
	if r.HiOpen {
		// p-min >= Hi → no overlap. p (as prefix) compares >= Hi when
		// Hi is not an extension of p and p >= Hi.
		if !r.Hi.HasPrefix(p) && p.Compare(r.Hi) >= 0 {
			return false
		}
	}
	// p-max < Lo → no overlap: true iff Lo has prefix p is false and
	// p < Lo... p-max is p followed by all ones; p-max < Lo only if Lo
	// has p as proper prefix? No: if Lo has prefix p, overlap possible.
	if r.Lo.HasPrefix(p) {
		return true
	}
	return p.Compare(r.Lo) >= 0
}

// WithinPrefix reports whether every full-depth key in r has prefix p:
// whether the partition at trie path p alone holds all of r. Bounds
// are read as padded with zero bits, as full-depth keys see them.
func (r Range) WithinPrefix(p Key) bool {
	lo := r.Lo
	for lo.Len() < p.Len() {
		lo = lo.Append(0)
	}
	if lo.Compare(p) < 0 {
		return false
	}
	end, ok := p.Successor()
	if !ok {
		return true
	}
	if !r.HiOpen {
		return false
	}
	hi := r.Hi
	for hi.Len() > end.Len() && hi.Bit(hi.Len()-1) == 0 {
		hi = hi.Prefix(hi.Len() - 1)
	}
	return hi.Compare(end) <= 0
}

// PrefixRange returns the range covering exactly the keys with prefix p.
func PrefixRange(p Key) Range {
	hi, ok := p.Successor()
	if !ok {
		return Range{Lo: p} // p is all ones: range extends to the end
	}
	return Range{Lo: p, Hi: hi, HiOpen: true}
}

// StringRange returns the key range covering all strings s with
// lo <= s < hi (byte-wise). If hi is empty the range is unbounded above.
func StringRange(lo, hi string) Range {
	r := Range{Lo: HashString(lo)}
	if hi != "" {
		r.Hi = HashString(hi)
		r.HiOpen = true
	}
	return r
}

// --- Binary marshaling --------------------------------------------------------
//
// Keys cross process boundaries inside wire messages (the real
// transport's gob-encoded payloads). The format is 2 bytes of
// big-endian bit count followed by the packed bits, MSB first — the
// in-memory layout, made explicit and validated on decode.

// maxWireBits bounds the bit count accepted from the wire: far above
// MaxDepth and every derivable key, far below anything that could make
// a hostile length allocate real memory.
const maxWireBits = 1 << 15

// MarshalBinary implements encoding.BinaryMarshaler.
func (k Key) MarshalBinary() ([]byte, error) {
	nb := (k.n + 7) / 8
	out := make([]byte, 2+nb)
	binary.BigEndian.PutUint16(out, uint16(k.n))
	copy(out[2:], k.bits[:nb])
	return out, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler. Unlike
// FromBytes it rejects malformed input with an error instead of
// panicking: wire data is untrusted.
func (k *Key) UnmarshalBinary(data []byte) error {
	if len(data) < 2 {
		return fmt.Errorf("keys: key blob too short (%d bytes)", len(data))
	}
	n := int(binary.BigEndian.Uint16(data))
	if n > maxWireBits {
		return fmt.Errorf("keys: key length %d bits exceeds wire bound", n)
	}
	nb := (n + 7) / 8
	if len(data) != 2+nb {
		return fmt.Errorf("keys: key blob carries %d bytes for %d bits", len(data)-2, n)
	}
	*k = FromBytes(data[2:], n)
	return nil
}
