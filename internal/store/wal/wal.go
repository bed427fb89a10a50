package wal

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"time"

	"unistore/internal/keys"
	"unistore/internal/store"
	"unistore/internal/triple"
)

// SyncPolicy is when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: an acknowledged write is on
	// disk before the caller sees the acknowledgement. The daemon
	// default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker (Options.SyncEvery):
	// bounded data loss, amortized cost.
	SyncInterval
	// SyncOff never fsyncs (Close still does): the simulation setting —
	// simnet benchmarks keep their perf baselines, and the file content
	// is still there for same-machine restarts.
	SyncOff
)

// ParseSyncPolicy maps the flag spelling to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off", "none":
		return SyncOff, nil
	}
	return SyncAlways, fmt.Errorf("wal: unknown fsync policy %q (always|interval|off)", s)
}

// Options parameterizes Open.
type Options struct {
	// FS is the disk surface; nil means the real one.
	FS FS
	// Sync is the fsync policy for appended records.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period; 0 means 100ms.
	SyncEvery time.Duration
	// CompactAfter is the log size (bytes) past which a mutation
	// triggers snapshot + log-truncation compaction. 0 means 4 MiB;
	// negative disables compaction.
	CompactAfter int64
	// NoGroupCommit disables group commit under SyncAlways: every
	// append fsyncs inline, serialized under the DB lock — the
	// pre-batching baseline benchmarks compare against. With group
	// commit (the default), concurrent appends share fsyncs: the first
	// writer becomes the sync leader while later writers queue behind
	// it, and one disk flush then covers every record appended before
	// it started. Durability is identical — no append is acknowledged
	// before a completed fsync covers it. The other policies ignore
	// this knob.
	NoGroupCommit bool
}

// RecoveryInfo reports what Open found.
type RecoveryInfo struct {
	// HadState is whether the directory held any prior log, snapshot,
	// or marker — false means a genuinely fresh start (first boot, or a
	// wiped disk, whose rejoin then pulls the whole partition).
	HadState bool
	// Clean is whether the previous process shut down gracefully (the
	// clean-shutdown marker matched the log exactly, so no torn tail
	// was possible).
	Clean bool
	// SnapshotGen is the generation whose snapshot was loaded (0: none).
	SnapshotGen uint64
	// SnapshotEntries is the entry count loaded from the snapshot.
	SnapshotEntries int
	// Replayed is the number of log records replayed over the snapshot.
	Replayed int
	// TornBytes is the size of the truncated torn tail (0 when the log
	// ended exactly on a record boundary).
	TornBytes int64
}

// DB is one store's durability: an open write-ahead log plus the
// snapshot generation machinery. It implements store.Durability, so
// the store logs every accepted mutation through it before applying.
type DB struct {
	fs   FS
	dir  string
	st   *store.Store
	opts Options
	info RecoveryInfo

	mu      sync.Mutex
	gen     uint64
	w       File
	walSize int64
	dirty   bool // appended records not yet fsynced
	err     error
	closed  bool

	// Group-commit state (all under mu). writeSeq tickets appends,
	// syncedSeq is the highest ticket a completed fsync covers, and
	// syncing marks a leader holding the file handle outside the lock
	// (Compact and Close must wait it out before swapping or closing
	// the file). syncDone signals both leader completion and syncedSeq
	// advances.
	writeSeq  uint64
	syncedSeq uint64
	syncing   bool
	syncDone  *sync.Cond
	syncs     int64 // completed fsyncs (bench/testing hook)

	stopCh chan struct{}
	wg     sync.WaitGroup
}

const markerName = "CLEAN"

func walName(gen uint64) string  { return fmt.Sprintf("wal-%06d", gen) }
func snapName(gen uint64) string { return fmt.Sprintf("snap-%06d", gen) }

// Open recovers dir into st (which must not be mutated concurrently —
// open the DB before the peer starts serving) and attaches the log to
// it: from then on every mutation the store accepts is logged first.
// A missing or empty dir is a fresh start; a crashed dir replays the
// latest valid snapshot plus the log and truncates the torn tail.
func Open(dir string, st *store.Store, opts Options) (*DB, error) {
	if opts.FS == nil {
		opts.FS = OSFS{}
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.CompactAfter == 0 {
		opts.CompactAfter = 4 << 20
	}
	d := &DB{fs: opts.FS, dir: dir, st: st, opts: opts, stopCh: make(chan struct{})}
	d.syncDone = sync.NewCond(&d.mu)
	if err := d.fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", dir, err)
	}
	if err := d.recover(); err != nil {
		return nil, err
	}
	st.SetDurability(d)
	if opts.Sync == SyncInterval {
		d.wg.Add(1)
		go d.syncLoop()
	}
	return d, nil
}

// recover scans dir, loads the newest valid snapshot, replays its log
// (truncating a torn tail), and leaves the log open for appending.
func (d *DB) recover() error {
	names, err := d.fs.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("wal: readdir %s: %w", d.dir, err)
	}
	var snaps, wals []uint64
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			d.fs.Remove(join(d.dir, name)) // interrupted snapshot write
			continue
		}
		var gen uint64
		switch {
		case strings.HasPrefix(name, "wal-"):
			if _, err := fmt.Sscanf(name, "wal-%d", &gen); err == nil {
				wals = append(wals, gen)
			}
		case strings.HasPrefix(name, "snap-"):
			if _, err := fmt.Sscanf(name, "snap-%d", &gen); err == nil {
				snaps = append(snaps, gen)
			}
		}
	}

	// The clean-shutdown marker is consumed on open: whatever happens
	// to this process, the NEXT recovery must not trust a stale marker.
	cleanGen, cleanSize := uint64(0), int64(-1)
	if data, err := d.fs.ReadFile(join(d.dir, markerName)); err == nil {
		fmt.Sscanf(string(data), "unistore-wal-clean %d %d", &cleanGen, &cleanSize)
		d.fs.Remove(join(d.dir, markerName))
		d.info.HadState = true
	}
	if len(snaps)+len(wals) > 0 {
		d.info.HadState = true
	}

	gen := uint64(0)
	for _, g := range append(append([]uint64(nil), snaps...), wals...) {
		if g > gen {
			gen = g
		}
	}
	if gen == 0 {
		gen = 1 // fresh directory
	}

	// Snapshot, if the chosen generation has one. An invalid snapshot
	// is corruption, not a crash artifact: crashes leave .tmp files
	// (removed above), never a renamed-but-short snapshot.
	if contains(snaps, gen) {
		entries, count, err := d.loadSnapshot(snapName(gen))
		if err != nil {
			return fmt.Errorf("wal: snapshot %s: %w", snapName(gen), err)
		}
		for _, e := range entries {
			d.st.Apply(e)
		}
		d.info.SnapshotGen = gen
		d.info.SnapshotEntries = count
	}

	// Replay the generation's log over it.
	walPath := join(d.dir, walName(gen))
	data, err := d.fs.ReadFile(walPath)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("wal: read %s: %w", walPath, err)
	}
	clean := cleanGen == gen && cleanSize == int64(len(data))
	off := 0
	for off < len(data) {
		payload, next, rerr := nextRecord(data, off)
		if rerr == nil {
			rerr = d.replayRecord(payload)
		}
		if rerr != nil {
			if clean {
				return fmt.Errorf("wal: %s corrupt at offset %d after clean shutdown: %w", walPath, off, rerr)
			}
			// The torn tail: truncate and stop — every record before it
			// replayed, nothing after it can be trusted.
			if terr := d.fs.Truncate(walPath, int64(off)); terr != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", walPath, terr)
			}
			d.info.TornBytes = int64(len(data) - off)
			data = data[:off]
			break
		}
		off = next
		d.info.Replayed++
	}
	d.info.Clean = clean

	w, err := d.fs.Append(walPath)
	if err != nil {
		return fmt.Errorf("wal: open %s: %w", walPath, err)
	}
	d.gen = gen
	d.w = w
	d.walSize = int64(len(data))

	// Older generations are superseded; their removal (and the marker's)
	// becomes durable with the directory sync.
	for _, g := range snaps {
		if g != gen {
			d.fs.Remove(join(d.dir, snapName(g)))
		}
	}
	for _, g := range wals {
		if g != gen {
			d.fs.Remove(join(d.dir, walName(g)))
		}
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return fmt.Errorf("wal: sync dir %s: %w", d.dir, err)
	}
	return nil
}

func contains(gens []uint64, g uint64) bool {
	for _, x := range gens {
		if x == g {
			return true
		}
	}
	return false
}

// replayRecord applies one log record to the store (no durability
// attached yet, so replay does not re-log).
func (d *DB) replayRecord(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("wal: empty record")
	}
	dec := &decoder{data: payload, off: 1}
	switch payload[0] {
	case opEntry:
		e, err := decodeEntry(dec)
		if err != nil {
			return err
		}
		d.st.Apply(e)
		return nil
	case opDrop:
		dr, err := decodeDrop(dec)
		if err != nil {
			return err
		}
		if dr.retain {
			d.st.RetainRange(dr.kind, dr.r)
		} else {
			d.st.DropRange(dr.kind, dr.r)
		}
		return nil
	}
	return fmt.Errorf("wal: unexpected op %d in log", payload[0])
}

// loadSnapshot parses and validates a whole snapshot before returning
// its entries: header count, that many entries, matching footer,
// nothing else. Any deviation is an error (snapshots are written
// atomically — rename after fsync — so a bad one is corruption).
func (d *DB) loadSnapshot(name string) ([]store.Entry, int, error) {
	data, err := d.fs.ReadFile(join(d.dir, name))
	if err != nil {
		return nil, 0, err
	}
	off := 0
	payload, off, err := nextRecord(data, off)
	if err != nil || len(payload) == 0 || payload[0] != opSnapHead {
		return nil, 0, fmt.Errorf("missing header")
	}
	dec := &decoder{data: payload, off: 1}
	count, err := dec.u64()
	if err != nil || count > uint64(len(data)/9) {
		return nil, 0, fmt.Errorf("implausible entry count")
	}
	entries := make([]store.Entry, 0, count)
	for i := uint64(0); i < count; i++ {
		payload, off, err = nextRecord(data, off)
		if err != nil || len(payload) == 0 || payload[0] != opEntry {
			return nil, 0, fmt.Errorf("entry %d/%d unreadable", i, count)
		}
		e, derr := decodeEntry(&decoder{data: payload, off: 1})
		if derr != nil {
			return nil, 0, fmt.Errorf("entry %d/%d: %w", i, count, derr)
		}
		entries = append(entries, e)
	}
	payload, off, err = nextRecord(data, off)
	if err != nil || len(payload) == 0 || payload[0] != opSnapFoot {
		return nil, 0, fmt.Errorf("missing footer")
	}
	dec = &decoder{data: payload, off: 1}
	foot, err := dec.u64()
	if err != nil || foot != count {
		return nil, 0, fmt.Errorf("footer count mismatch")
	}
	if off != len(data) {
		return nil, 0, fmt.Errorf("%d trailing bytes", len(data)-off)
	}
	return entries, int(count), nil
}

// Info reports what recovery found.
func (d *DB) Info() RecoveryInfo { return d.info }

// Err returns the sticky durability error: once an append or sync
// fails, the store rejects further writes rather than acknowledging
// data the log does not hold.
func (d *DB) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Gen returns the current log generation (testing hook).
func (d *DB) Gen() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// LogSize returns the current log size in bytes.
func (d *DB) LogSize() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.walSize
}

// --- store.Durability -----------------------------------------------------

// LogApply logs one accepted mutation; the store calls it BEFORE
// applying, and a returned error rejects the write.
func (d *DB) LogApply(e store.Entry) error {
	return d.append(encodeEntry(nil, e))
}

// LogDrop logs one range purge (DropRange, or RetainRange with retain
// set) as a single logical record.
func (d *DB) LogDrop(kind triple.IndexKind, r keys.Range, retain bool) error {
	return d.append(encodeDrop(nil, kind, r, retain))
}

func (d *DB) append(payload []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	if d.closed {
		return fmt.Errorf("wal: %s: closed", d.dir)
	}
	buf := appendRecord(nil, payload)
	if _, err := d.w.Write(buf); err != nil {
		// A partial frame may now sit at the log tail; recovery's
		// torn-tail truncation owns that case. Reject this and every
		// following write.
		d.err = fmt.Errorf("wal: append: %w", err)
		return d.err
	}
	d.walSize += int64(len(buf))
	d.dirty = true
	if d.opts.Sync != SyncAlways {
		return nil
	}
	if d.opts.NoGroupCommit {
		if err := d.w.Sync(); err != nil {
			d.err = fmt.Errorf("wal: fsync: %w", err)
			return d.err
		}
		d.syncs++
		d.dirty = false
		return nil
	}
	return d.groupCommitLocked()
}

// groupCommitLocked makes the caller's freshly written record durable
// while letting concurrent appends share the fsync. The caller takes a
// ticket; whoever finds no sync in flight becomes the leader, captures
// the current ticket high-water mark, releases the lock for the
// duration of the disk flush (appends keep flowing in behind it), and
// on return credits every ticket the flush covered. Followers wait on
// the condition until a completed flush covers their ticket — which is
// exactly the SyncAlways guarantee, paid once per batch instead of
// once per record.
func (d *DB) groupCommitLocked() error {
	d.writeSeq++
	seq := d.writeSeq
	for {
		if d.err != nil {
			return d.err
		}
		if d.syncedSeq >= seq {
			return nil
		}
		if d.syncing {
			d.syncDone.Wait()
			continue
		}
		d.syncing = true
		target := d.writeSeq
		w := d.w
		d.mu.Unlock()
		err := w.Sync()
		d.mu.Lock()
		d.syncing = false
		if err != nil {
			if d.err == nil {
				d.err = fmt.Errorf("wal: fsync: %w", err)
			}
		} else {
			d.syncs++
			if target > d.syncedSeq {
				d.syncedSeq = target
			}
			if d.syncedSeq >= d.writeSeq {
				d.dirty = false
			}
		}
		d.syncDone.Broadcast()
	}
}

// waitSyncIdleLocked blocks until no group-commit leader holds the
// file handle outside the lock; Compact (which swaps the file) and
// Close/Sync (which flush or close it) must not race a leader's fsync.
func (d *DB) waitSyncIdleLocked() {
	for d.syncing {
		d.syncDone.Wait()
	}
}

// Syncs returns the number of completed fsyncs (bench/testing hook:
// group commit's batching factor is appends over syncs).
func (d *DB) Syncs() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncs
}

// WantCompact reports whether the log has outgrown the compaction
// threshold. The store consults it after each mutation (under its own
// lock) and calls Compact with a consistent fact snapshot.
func (d *DB) WantCompact() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err == nil && !d.closed && d.opts.CompactAfter > 0 && d.walSize >= d.opts.CompactAfter
}

// Compact writes facts as the next generation's snapshot and switches
// to its empty log: snapshot to a temp file, fsync, rename, fsync dir,
// create the new log, fsync dir, then drop the old generation. A crash
// at ANY point leaves a recoverable directory — before the rename the
// old generation is untouched; after it the new snapshot already holds
// everything the old log did. The caller (the store) holds its own
// lock, so no mutation can slip between the snapshot and the switch.
func (d *DB) Compact(facts []store.Entry) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.waitSyncIdleLocked()
	if d.err != nil {
		return d.err
	}
	// A failed compaction poisons the DB: past the snapshot rename the
	// NEW generation is what recovery will load, so appending more to
	// the old log would silently lose those writes. Refusing all further
	// writes is the only answer that never drops an acked one.
	defer func() {
		if err != nil {
			d.err = err
		}
	}()
	newGen := d.gen + 1
	tmp := join(d.dir, snapName(newGen)+".tmp")
	f, err := d.fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	buf := appendRecord(nil, encodeCount(opSnapHead, uint64(len(facts))))
	for _, e := range facts {
		buf = appendRecord(buf, encodeEntry(nil, e))
		if len(buf) >= 1<<20 {
			if _, err := f.Write(buf); err != nil {
				f.Close()
				d.fs.Remove(tmp)
				return fmt.Errorf("wal: compact: %w", err)
			}
			buf = buf[:0]
		}
	}
	buf = appendRecord(buf, encodeCount(opSnapFoot, uint64(len(facts))))
	if _, err := f.Write(buf); err != nil {
		f.Close()
		d.fs.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		d.fs.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	f.Close()
	if err := d.fs.Rename(tmp, join(d.dir, snapName(newGen))); err != nil {
		d.fs.Remove(tmp)
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	nw, err := d.fs.Create(join(d.dir, walName(newGen)))
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := d.fs.SyncDir(d.dir); err != nil {
		nw.Close()
		return fmt.Errorf("wal: compact: %w", err)
	}
	// The switch: the new generation is durable, adopt it.
	oldGen := d.gen
	d.w.Close()
	d.w = nw
	d.gen = newGen
	d.walSize = 0
	d.dirty = false
	// Old-generation cleanup is best effort — recovery always picks the
	// highest generation, so leftovers cost disk, not correctness.
	d.fs.Remove(join(d.dir, walName(oldGen)))
	d.fs.Remove(join(d.dir, snapName(oldGen)))
	d.fs.SyncDir(d.dir)
	return nil
}

// --- sync & close ---------------------------------------------------------

// Sync flushes appended records to disk (the SyncInterval ticker body;
// also useful directly).
func (d *DB) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.syncLocked()
}

func (d *DB) syncLocked() error {
	d.waitSyncIdleLocked()
	if d.err != nil {
		return d.err
	}
	if !d.dirty || d.w == nil {
		return nil
	}
	if err := d.w.Sync(); err != nil {
		d.err = fmt.Errorf("wal: fsync: %w", err)
		return d.err
	}
	d.syncs++
	d.dirty = false
	d.syncedSeq = d.writeSeq
	d.syncDone.Broadcast()
	return nil
}

func (d *DB) syncLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.Sync()
		case <-d.stopCh:
			return
		}
	}
}

// Close flushes and fsyncs the log regardless of the sync policy,
// writes the clean-shutdown marker, and closes the file: the next Open
// sees a clean directory and skips torn-tail truncation. The store
// rejects writes arriving after Close (callers stop traffic first).
func (d *DB) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	close(d.stopCh)
	d.wg.Wait()

	d.mu.Lock()
	defer d.mu.Unlock()
	d.waitSyncIdleLocked()
	var first error
	if d.dirty && d.w != nil {
		if err := d.w.Sync(); err != nil && first == nil {
			first = err
		}
		d.dirty = false
		d.syncedSeq = d.writeSeq
		d.syncDone.Broadcast()
	}
	if d.err == nil {
		// A clean marker is only truthful if every append succeeded.
		if f, err := d.fs.Create(join(d.dir, markerName)); err == nil {
			fmt.Fprintf(f, "unistore-wal-clean %d %d\n", d.gen, d.walSize)
			if err := f.Sync(); err != nil && first == nil {
				first = err
			}
			f.Close()
			if err := d.fs.SyncDir(d.dir); err != nil && first == nil {
				first = err
			}
		} else if first == nil {
			first = err
		}
	}
	if d.w != nil {
		if err := d.w.Close(); err != nil && first == nil {
			first = err
		}
		d.w = nil
	}
	if first == nil {
		first = d.err
	}
	return first
}
