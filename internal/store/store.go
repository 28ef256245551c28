// Package store is the content-addressed on-disk artifact store that makes
// the process-lifetime caches durable: hcache token streams and preprocessed
// headers, and per-unit analysis facts, persisted across runs and across
// daemon restarts.
//
// Artifacts are opaque byte payloads addressed by (namespace, key), where
// the key already embeds the content hashes and configuration fingerprints
// the in-memory caches use — the store adds no invalidation semantics of its
// own beyond what the keys and the replay-time dep/probe checks carry (see
// internal/hcache: a stale entry's key stops being looked up, and a replayed
// entry re-validates its recorded file hashes and existence probes against
// the live file system before use).
//
// The on-disk format is corruption-safe and crash-consistent: every artifact
// file carries a magic header, the payload length, and a sha256 checksum;
// writes go through a temp file that is fsynced, atomically renamed into
// place, and made durable with a parent-directory fsync. A truncated,
// bit-flipped, or torn entry fails its checksum and reads as a miss — never
// an error and never a wrong payload. Open runs a crash-consistency scrub:
// leftover temp files from an interrupted write are swept, and artifacts
// whose header no longer validates are quarantined (moved aside, not
// silently deleted) so an operator can inspect what a crash tore.
//
// Failure handling distinguishes two regimes. Corruption (a file that is
// present and readable but fails validation) deletes the artifact and reads
// as a miss. Transient I/O failure (ENOSPC, EIO, EROFS, EDQUOT) never
// deletes anything: reads keep the entry for when the disk recovers, and
// after a few consecutive write failures the store enters degraded mode —
// writes become no-ops, reads keep serving, and one warning is printed —
// instead of failing or stalling requests. The store is an accelerator,
// never a correctness dependency.
//
// The total payload size is bounded: when Put pushes the store over
// Options.MaxBytes, least recently used artifacts are evicted (access order
// is tracked in memory and seeded from file modification times at Open).
//
// A Store is safe for concurrent use by any number of goroutines. It
// assumes a single process owns the directory at a time (the superd daemon,
// or one CLI run); concurrent processes cannot corrupt each other thanks to
// the atomic writes, but their hit accounting and eviction order are then
// only approximate.
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"repro/internal/stats"
)

// magic identifies an artifact file and versions the wire format.
const magic = "superc-artifact/v1\n"

// headerSize is magic + 8-byte payload length + 32-byte sha256.
const headerSize = len(magic) + 8 + sha256.Size

// DefaultMaxBytes bounds the store's total payload size when Options.MaxBytes
// is zero: 256 MiB, roughly a few thousand preprocessed headers.
const DefaultMaxBytes = 256 << 20

// DefaultFailureThreshold is how many consecutive transient write failures
// flip the store into degraded mode when Options.FailureThreshold is zero.
const DefaultFailureThreshold = 3

// quarantineDir is the subdirectory torn artifacts are moved into by the
// open-time scrub, kept out of the index and the size accounting.
const quarantineDir = "quarantine"

// Options bounds a Store.
type Options struct {
	// MaxBytes bounds the total payload bytes on disk; 0 means
	// DefaultMaxBytes, negative means unbounded.
	MaxBytes int64
	// NoSync skips the fsync of artifact files and their parent directory.
	// Writes stay atomic (temp + rename) but a crash can then lose or tear
	// recently written artifacts; the open-time scrub still recovers by
	// quarantining anything torn. For benchmarks and tests only.
	NoSync bool
	// FailureThreshold is how many consecutive transient write failures
	// (ENOSPC, EIO, ...) put the store into degraded mode; 0 means
	// DefaultFailureThreshold, negative disables degradation.
	FailureThreshold int
}

// Snapshot is a point-in-time copy of the store's counters.
type Snapshot struct {
	Hits        int64 // Get found a valid artifact
	Misses      int64 // Get found nothing
	Writes      int64 // Put stored an artifact
	Evictions   int64 // artifacts dropped by the size bound
	Corrupt     int64 // artifacts dropped for failing their checksum
	Scrubbed    int64 // torn artifacts quarantined by the open-time scrub
	TmpSwept    int64 // interrupted-write temp files removed at open
	WriteErrors int64 // transient I/O write failures (swallowed)
	ReadErrors  int64 // transient I/O read failures (entry kept)
	Degraded    int64 // 1 once persistent write failure disabled writes
	Entries     int64 // current artifact count
	Bytes       int64 // current total payload bytes
}

// Fields names the Snapshot values for the metrics registry: harness run
// deltas and superd's lifetime totals render these names. Degraded,
// Entries and Bytes are current state: gauges, which a delta keeps.
var Fields = stats.Fields[Snapshot]{
	stats.NewField("store_hits", stats.KindCounter, "Store lookups that found a valid artifact.", func(s *Snapshot) int64 { return s.Hits }),
	stats.NewField("store_misses", stats.KindCounter, "Store lookups that found nothing.", func(s *Snapshot) int64 { return s.Misses }),
	stats.NewField("store_writes", stats.KindCounter, "Artifacts written.", func(s *Snapshot) int64 { return s.Writes }),
	stats.NewField("store_evictions", stats.KindCounter, "Artifacts dropped by the size bound.", func(s *Snapshot) int64 { return s.Evictions }),
	stats.NewField("store_corrupt", stats.KindCounter, "Artifacts dropped for failing their checksum.", func(s *Snapshot) int64 { return s.Corrupt }),
	stats.NewField("store_scrubbed", stats.KindCounter, "Torn artifacts quarantined by the open-time scrub.", func(s *Snapshot) int64 { return s.Scrubbed }),
	stats.NewField("store_tmp_swept", stats.KindCounter, "Interrupted-write temp files removed at open.", func(s *Snapshot) int64 { return s.TmpSwept }),
	stats.NewField("store_write_errors", stats.KindCounter, "Transient write failures, swallowed.", func(s *Snapshot) int64 { return s.WriteErrors }),
	stats.NewField("store_read_errors", stats.KindCounter, "Transient read failures; the entry is kept.", func(s *Snapshot) int64 { return s.ReadErrors }),
	stats.NewField("store_degraded", stats.KindGauge, "1 once persistent write failures made the store read-only.", func(s *Snapshot) int64 { return s.Degraded }),
	stats.NewField("store_entries", stats.KindGauge, "Artifacts currently stored.", func(s *Snapshot) int64 { return s.Entries }),
	stats.NewField("store_bytes", stats.KindGauge, "Payload bytes currently stored.", func(s *Snapshot) int64 { return s.Bytes }),
}

// CrashPoint names a simulated crash inside the artifact write path, for the
// chaos suite. Each point reproduces the on-disk state a real power loss at
// that stage can leave behind.
type CrashPoint int

const (
	// CrashNone lets the write proceed normally.
	CrashNone CrashPoint = iota
	// CrashTorn simulates dying after the rename but before the data
	// fsync made the payload durable: the artifact exists at its final
	// path with a truncated payload. The open-time scrub must quarantine
	// it and Get must never serve it.
	CrashTorn
	// CrashBeforeRename simulates dying between the temp-file fsync and
	// the rename: a complete temp file is left beside the artifacts and
	// the entry itself never appears. The open-time sweep must remove it.
	CrashBeforeRename
	// CrashAfterRename simulates dying after the rename but before the
	// parent-directory fsync: the artifact file is complete and, when the
	// directory entry survived, fully valid. Open must index it normally.
	CrashAfterRename
)

// Store is a bounded content-addressed artifact store rooted at one
// directory.
type Store struct {
	dir    string
	max    int64
	nosync bool
	thresh int

	mu    sync.Mutex
	index map[string]*artifact // ns+"\x00"+key -> entry
	lru   *list.List           // of *artifact, front = most recent
	bytes int64

	hits, misses, writes,
	evictions, corrupt stats.Counter
	scrubbed, tmpSwept  stats.Counter
	writeErrs, readErrs stats.Counter
	consecWriteErrs     atomic.Int64
	degraded            atomic.Bool
	degradedWarn        sync.Once
	crashHook           atomic.Pointer[func(id string) CrashPoint]
	writeErrHook        atomic.Pointer[func(id string) error]
	readErrHook         atomic.Pointer[func(id string) error]
}

// artifact is one indexed on-disk entry.
type artifact struct {
	id   string // index key (ns + NUL + key)
	path string
	size int64
	elem *list.Element
}

// Open opens (creating if needed) the store rooted at dir, sweeps the debris
// of any interrupted write, quarantines artifacts whose header fails
// validation, and indexes the rest.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	max := opts.MaxBytes
	if max == 0 {
		max = DefaultMaxBytes
	}
	thresh := opts.FailureThreshold
	if thresh == 0 {
		thresh = DefaultFailureThreshold
	}
	s := &Store{
		dir:    dir,
		max:    max,
		nosync: opts.NoSync,
		thresh: thresh,
		index:  make(map[string]*artifact),
		lru:    list.New(),
	}
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Degraded reports whether persistent write failure has disabled writes.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// SetCrashHook installs fn, consulted once per Put with the artifact id; a
// nonzero CrashPoint makes the write die at that stage, leaving the on-disk
// state a real crash there would leave. Chaos-test instrumentation: nil (the
// default) restores normal operation, and the disarmed cost is one atomic
// load per Put.
func (s *Store) SetCrashHook(fn func(id string) CrashPoint) {
	if fn == nil {
		s.crashHook.Store(nil)
		return
	}
	s.crashHook.Store(&fn)
}

// InjectWriteError installs fn, consulted once per Put; a non-nil error is
// treated exactly like the OS failing the write with it (counting toward
// degraded mode when transient). Chaos-test instrumentation.
func (s *Store) InjectWriteError(fn func(id string) error) {
	if fn == nil {
		s.writeErrHook.Store(nil)
		return
	}
	s.writeErrHook.Store(&fn)
}

// InjectReadError installs fn, consulted once per Get; a non-nil error is
// treated exactly like the OS failing the read with it. Chaos-test
// instrumentation.
func (s *Store) InjectReadError(fn func(id string) error) {
	if fn == nil {
		s.readErrHook.Store(nil)
		return
	}
	s.readErrHook.Store(&fn)
}

// scan rebuilds the index from the directory contents: temp files from
// interrupted writes are swept, torn artifacts are quarantined, and access
// order is seeded from modification times (oldest = least recently used).
func (s *Store) scan() error {
	type found struct {
		a     *artifact
		mtime int64
	}
	var all []found
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == quarantineDir && path != s.dir {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if strings.HasPrefix(name, "put-") && strings.HasSuffix(name, ".tmp") {
			// Debris of a write that died between CreateTemp and rename.
			os.Remove(path)
			s.tmpSwept.Inc()
			return nil
		}
		if !strings.HasSuffix(path, ".art") {
			return nil
		}
		info, ierr := d.Info()
		if ierr != nil {
			return nil // raced with a concurrent delete; skip
		}
		id, size, ok := s.readMeta(path)
		if !ok {
			s.quarantine(path)
			return nil
		}
		all = append(all, found{
			a:     &artifact{id: id, path: path, size: size},
			mtime: info.ModTime().UnixNano(),
		})
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: scan: %w", err)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].mtime < all[j].mtime })
	for _, f := range all {
		if prev, ok := s.index[f.a.id]; ok {
			// Duplicate id (two files hashing the same key can only happen if
			// the naming scheme changed); keep the newer file.
			s.removeLocked(prev)
		}
		f.a.elem = s.lru.PushFront(f.a)
		s.index[f.a.id] = f.a
		s.bytes += f.a.size
	}
	s.evictOverLocked()
	return nil
}

// quarantine moves a torn artifact aside for inspection instead of silently
// deleting it (a delete would erase the evidence of what a crash tore). A
// failed move falls back to deletion so the broken file can never be
// re-indexed.
func (s *Store) quarantine(path string) {
	s.scrubbed.Inc()
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(path, filepath.Join(qdir, filepath.Base(path))) == nil {
			return
		}
	}
	os.Remove(path)
}

// pathFor maps an index id to its artifact file, sharding by the first key
// hash byte so directories stay small.
func (s *Store) pathFor(ns, key string) string {
	sum := sha256.Sum256([]byte(ns + "\x00" + key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, ns, name[:2], name+".art")
}

// Get returns the artifact payload stored under (ns, key). A missing entry,
// or one that fails its checksum (which is deleted), reads as a miss. A
// transient read error (EIO on a failing disk) also reads as a miss but
// keeps the entry: the payload may become readable again.
func (s *Store) Get(ns, key string) ([]byte, bool) {
	return s.get(ns, key, true)
}

// peek is Get without hit/miss accounting, for read-modify-write cycles
// that are not cache lookups (corruption is still counted and cleaned up).
func (s *Store) peek(ns, key string) ([]byte, bool) {
	return s.get(ns, key, false)
}

// errTornPayload marks a file that is present and readable but fails
// format/checksum validation: corruption, as opposed to a transient I/O
// failure.
var errTornPayload = errors.New("store: payload fails validation")

func (s *Store) get(ns, key string, counted bool) ([]byte, bool) {
	id := ns + "\x00" + key
	s.mu.Lock()
	a, ok := s.index[id]
	if ok {
		s.lru.MoveToFront(a.elem)
	}
	s.mu.Unlock()
	if !ok {
		if counted {
			s.misses.Inc()
		}
		return nil, false
	}
	payload, err := s.readArtifact(a.path, id)
	if err == nil {
		if counted {
			s.hits.Inc()
		}
		return payload, true
	}
	if counted {
		s.misses.Inc()
	}
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// The file vanished under us (a concurrent Delete or eviction won
		// the race): an ordinary miss, just drop the stale index entry.
		s.unindex(id, a)
	case errors.Is(err, errTornPayload):
		// Present but fails validation: corruption. Delete so the next
		// write can replace it; a corrupt artifact is never retried.
		s.corrupt.Inc()
		s.unindex(id, a)
	default:
		// A transient read failure (EIO and friends): keep the file and
		// the entry — the disk may recover — and never count it corrupt.
		s.readErrs.Inc()
		s.mu.Lock()
		if cur, still := s.index[id]; still && cur == a {
			// Demote so a flaky entry does not pin the LRU front.
			s.lru.MoveToBack(a.elem)
		}
		s.mu.Unlock()
	}
	return nil, false
}

// unindex drops one artifact (deleting its file) if it is still indexed.
func (s *Store) unindex(id string, a *artifact) {
	s.mu.Lock()
	if cur, still := s.index[id]; still && cur == a {
		s.removeLocked(a)
	}
	s.mu.Unlock()
}

// Put stores payload under (ns, key), replacing any previous artifact, and
// evicts least recently used artifacts while the store exceeds its size
// bound. Failures are swallowed — the store is an accelerator, never a
// correctness dependency — but classified: transient I/O errors (a full or
// failing disk) count toward the degraded-mode threshold, after which the
// store stops writing entirely and keeps serving reads.
func (s *Store) Put(ns, key string, payload []byte) {
	if s.degraded.Load() {
		return
	}
	id := ns + "\x00" + key
	path := s.pathFor(ns, key)
	if err := s.writeArtifact(path, id, payload); err != nil {
		if err == errCrashed {
			return // simulated crash: on-disk state already arranged
		}
		if isTransientIO(err) {
			s.writeErrs.Inc()
			if n := s.consecWriteErrs.Add(1); s.thresh > 0 && n >= int64(s.thresh) {
				s.degrade(err)
			}
		}
		return
	}
	s.consecWriteErrs.Store(0)
	s.writes.Inc()
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.index[id]; ok {
		s.bytes -= prev.size
		prev.size = int64(len(payload))
		s.bytes += prev.size
		s.lru.MoveToFront(prev.elem)
	} else {
		a := &artifact{id: id, path: path, size: int64(len(payload))}
		a.elem = s.lru.PushFront(a)
		s.index[id] = a
		s.bytes += a.size
	}
	s.evictOverLocked()
}

// degrade flips the store into read-only degraded mode with one warning.
func (s *Store) degrade(err error) {
	if s.degraded.CompareAndSwap(false, true) {
		s.degradedWarn.Do(func() {
			fmt.Fprintf(os.Stderr,
				"store: %s: persistent write failure (%v); degraded to read-only, results are unaffected\n",
				s.dir, err)
		})
	}
}

// isTransientIO reports whether err is the disk failing, not the caller
// misusing the store: these errors count toward degraded mode and never
// delete data.
func isTransientIO(err error) bool {
	for _, errno := range []syscall.Errno{
		syscall.ENOSPC, syscall.EDQUOT, syscall.EIO, syscall.EROFS,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// Delete removes the artifact stored under (ns, key), if any.
func (s *Store) Delete(ns, key string) {
	id := ns + "\x00" + key
	s.mu.Lock()
	defer s.mu.Unlock()
	if a, ok := s.index[id]; ok {
		s.removeLocked(a)
	}
}

// evictOverLocked drops least recently used artifacts until the size bound
// holds. Caller holds mu.
func (s *Store) evictOverLocked() {
	if s.max < 0 {
		return
	}
	for s.bytes > s.max && s.lru.Len() > 0 {
		a := s.lru.Back().Value.(*artifact)
		s.removeLocked(a)
		s.evictions.Inc()
	}
}

// removeLocked unindexes and deletes one artifact. Caller holds mu.
func (s *Store) removeLocked(a *artifact) {
	s.lru.Remove(a.elem)
	delete(s.index, a.id)
	s.bytes -= a.size
	os.Remove(a.path)
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Snapshot {
	s.mu.Lock()
	entries, bytes := int64(s.lru.Len()), s.bytes
	s.mu.Unlock()
	var degraded int64
	if s.degraded.Load() {
		degraded = 1
	}
	return Snapshot{
		Hits:        s.hits.Load(),
		Misses:      s.misses.Load(),
		Writes:      s.writes.Load(),
		Evictions:   s.evictions.Load(),
		Corrupt:     s.corrupt.Load(),
		Scrubbed:    s.scrubbed.Load(),
		TmpSwept:    s.tmpSwept.Load(),
		WriteErrors: s.writeErrs.Load(),
		ReadErrors:  s.readErrs.Load(),
		Degraded:    degraded,
		Entries:     entries,
		Bytes:       bytes,
	}
}

// readMeta validates an artifact file's header during the Open scan and
// returns its index id and payload size. The payload checksum is not
// verified here (that would read the whole store at startup); Get verifies
// it on first use.
func (s *Store) readMeta(path string) (id string, size int64, ok bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, false
	}
	defer f.Close()
	hdr := make([]byte, headerSize)
	if _, err := readFull(f, hdr); err != nil {
		return "", 0, false
	}
	if string(hdr[:len(magic)]) != magic {
		return "", 0, false
	}
	idLen := binary.BigEndian.Uint64(hdr[len(magic) : len(magic)+8])
	if idLen > 1<<20 {
		return "", 0, false
	}
	idBuf := make([]byte, idLen)
	if _, err := readFull(f, idBuf); err != nil {
		return "", 0, false
	}
	var lenBuf [8]byte
	if _, err := readFull(f, lenBuf[:]); err != nil {
		return "", 0, false
	}
	info, err := f.Stat()
	if err != nil {
		return "", 0, false
	}
	payloadLen := int64(binary.BigEndian.Uint64(lenBuf[:]))
	want := int64(headerSize) + int64(idLen) + 8 + payloadLen
	if payloadLen < 0 || info.Size() != want {
		return "", 0, false
	}
	return string(idBuf), payloadLen, true
}

// Artifact layout:
//
//	magic
//	8-byte big-endian id length | id bytes      (the ns+NUL+key, for scan)
//	32-byte sha256(payload)                     (within the fixed header)
//	8-byte big-endian payload length | payload
//
// The id is embedded so Open can rebuild the index without a side file; the
// checksum makes any torn or flipped payload detectable.

// errCrashed marks a write aborted by a simulated crash; the on-disk state
// has already been arranged by the crash point.
var errCrashed = errors.New("store: simulated crash")

// writeArtifact writes one artifact durably: temp file, fsync, atomic
// rename, parent-directory fsync. A crash anywhere in the sequence leaves
// either the old artifact, a swept-at-open temp file, or (without the data
// sync, which NoSync skips) a torn file the scrub quarantines — never a
// file that validates but carries the wrong payload.
func (s *Store) writeArtifact(path, id string, payload []byte) error {
	if hook := s.writeErrHook.Load(); hook != nil {
		if err := (*hook)(id); err != nil {
			return err
		}
	}
	var crash CrashPoint
	if hook := s.crashHook.Load(); hook != nil {
		crash = (*hook)(id)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	sum := sha256.Sum256(payload)
	hdr := make([]byte, 0, headerSize)
	hdr = append(hdr, magic...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(len(id)))
	hdr = append(hdr, sum[:]...)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(len(payload)))
	if crash == CrashTorn {
		// Die after the rename with the payload's tail never made durable:
		// the final path holds a truncated file, exactly what skipping the
		// data fsync risks under power loss.
		torn := append(append(append([]byte{}, hdr...), id...), lenBuf[:]...)
		torn = append(torn, payload[:len(payload)/2]...)
		if _, err := tmp.Write(torn); err != nil {
			tmp.Close()
			return err
		}
		tmp.Close()
		os.Rename(tmp.Name(), path)
		return errCrashed
	}
	for _, chunk := range [][]byte{hdr, []byte(id), lenBuf[:], payload} {
		if _, err := tmp.Write(chunk); err != nil {
			tmp.Close()
			return err
		}
	}
	if !s.nosync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if crash == CrashBeforeRename {
		// Die with a complete, synced temp file and no artifact: the
		// open-time sweep must remove the debris. (The deferred remove
		// cleans the live temp name, so the crash's leftover is staged
		// under a sibling temp name the sweep pattern matches.)
		data, _ := os.ReadFile(tmp.Name())
		os.WriteFile(filepath.Join(dir, "put-crashed.tmp"), data, 0o644)
		return errCrashed
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if crash == CrashAfterRename {
		// Die before the directory fsync: the artifact file itself is
		// complete; whether its directory entry survived is up to the
		// file system, and the surviving case must index cleanly.
		return errCrashed
	}
	if !s.nosync {
		if d, err := os.Open(dir); err == nil {
			d.Sync()
			d.Close()
		}
	}
	return nil
}

// readArtifact returns the validated payload, fs.ErrNotExist when the file
// vanished, errTornPayload when it is present but fails validation, or the
// underlying I/O error.
func (s *Store) readArtifact(path, id string) ([]byte, error) {
	if hook := s.readErrHook.Load(); hook != nil {
		if err := (*hook)(id); err != nil {
			return nil, err
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(data) < headerSize || string(data[:len(magic)]) != magic {
		return nil, errTornPayload
	}
	off := len(magic)
	idLen := binary.BigEndian.Uint64(data[off : off+8])
	off += 8
	var sum [sha256.Size]byte
	copy(sum[:], data[off:off+sha256.Size])
	off += sha256.Size
	if uint64(len(data)-off) < idLen+8 {
		return nil, errTornPayload
	}
	if string(data[off:off+int(idLen)]) != id {
		return nil, errTornPayload
	}
	off += int(idLen)
	payloadLen := binary.BigEndian.Uint64(data[off : off+8])
	off += 8
	if uint64(len(data)-off) != payloadLen {
		return nil, errTornPayload
	}
	payload := data[off:]
	if sha256.Sum256(payload) != sum {
		return nil, errTornPayload
	}
	return payload, nil
}

func readFull(f *os.File, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := f.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}
