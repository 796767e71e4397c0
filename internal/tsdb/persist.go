package tsdb

// Durable storage: checkpointed snapshots + WAL replay (wal.go holds the
// log itself). The paper delegates long-term storage to InfluxDB; this
// subsystem gives the embedded TSDB the same crash-safety contract without
// leaving the process.
//
// Disk layout under PersistOptions.Dir:
//
//	LOCK                      flock'd while a DB owns the directory
//	wal/00000001.wal ...      CRC-framed append log, one record per
//	                          Write/WriteBatch (dictionary-compressed
//	                          binary encoding — see wal.go)
//	checkpoint/00000007.ckpt  atomic full dump: a segment of self-contained
//	                          records in the WAL's codec (see ckptFormat);
//	                          the number is the first WAL segment NOT
//	                          covered, i.e. where replay must start
//
// Write path (WAL-first): a Write/WriteBatch appends its record to the log
// under commitMu.RLock, then applies to the in-memory stripes — so every
// point visible to queries is (per the fsync policy) also on disk, and a
// record whose apply was cut short by a crash is simply replayed.
//
// Checkpoint cycle (Checkpoint, run every CheckpointEvery and on demand):
//
//  1. take commitMu exclusively — no commit is between its WAL append and
//     its in-memory apply;
//  2. rotate the WAL: records committed so far live in segments < newSeg,
//     records committed later in segments >= newSeg;
//  3. grab every stripe's read lock, then release commitMu — writers may
//     resume appending (their records are >= newSeg) but cannot touch a
//     stripe that has not been staged yet;
//  4. stage each stripe's dump into memory, releasing its lock the moment
//     the copy is done — a writer stalls only for the memory-speed copy
//     of the stripe it targets, never behind file I/O;
//  5. write the staged records lock-free as checkpoint/<newSeg>.ckpt with
//     seglog's atomic whole-segment writer (temp file, fsync, rename,
//     directory fsync: a crash leaves either the old checkpoint or the new
//     one, never a partial);
//  6. delete older checkpoints and WAL segments < newSeg.
//
// The dump is therefore an exact cut of the state at rotation time:
// restore-on-start loads the newest checkpoint and replays exactly the
// segments >= its number, so no point is lost or double-counted. Replay
// runs through the normal write path before the WAL is re-armed, which
// rebuilds every rollup tier and re-applies retention as a side effect —
// tiers are derived data and are never serialized.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ruru/internal/seglog"
)

// PersistOptions enables durable storage for a DB opened with OpenDB.
type PersistOptions struct {
	// Dir is the data directory (created if absent). A lockfile refuses a
	// second concurrent open of the same directory.
	Dir string
	// Fsync selects the WAL durability policy: FsyncInterval (default),
	// FsyncAlways or FsyncOff. See the policy constants for the exact
	// data-loss window each buys.
	Fsync FsyncPolicy
	// FsyncInterval is the background fsync period under FsyncInterval
	// (default 100ms). It bounds the committed-data loss window of a
	// power failure.
	FsyncInterval time.Duration
	// CheckpointEvery is the automatic checkpoint period (default 1m;
	// negative disables automation — checkpoints then happen only via
	// DB.Checkpoint, e.g. POST /api/checkpoint). Each checkpoint bounds
	// restart replay work and truncates the WAL behind itself.
	CheckpointEvery time.Duration
	// MaxSegmentBytes caps one WAL segment file (default 64 MiB).
	MaxSegmentBytes int64
}

// ErrNoPersist reports a durability operation on an in-memory DB.
var ErrNoPersist = errors.New("tsdb: persistence not enabled")

// ErrDirLocked reports a data directory already owned by a live process.
var ErrDirLocked = errors.New("tsdb: data directory locked")

const (
	ckptDirName = "checkpoint"
	lockName    = "LOCK"
)

// ckptRecordBytes sizes checkpoint records: each (stripe, shard slot) chunk
// of the dump is one or more, each ending at the first point past this.
const ckptRecordBytes = 1 << 20

// ckptFormat names the checkpoint files (per call, like walFormat): segments
// numbered in the WAL's segment space (the first segment NOT covered). A
// record holds at most ckptRecordBytes plus one point the WAL took. The
// magic starts with a space, which no line-protocol checkpoint (older
// binaries') starts with and their Restore refuses: a downgrade fails.
func ckptFormat() seglog.Format {
	return seglog.Format{Suffix: ".ckpt", Magic: " RUCKPT1", MaxRecord: maxRecordBytes + ckptRecordBytes}
}

// recordChunk returns Checkpoint's dumpEncoder: a new record at each chunk
// and whenever the current one reaches ckptRecordBytes.
func recordChunk() dumpEncoder {
	var enc pointEncoder
	return func(pieces [][]byte, p *Point) [][]byte {
		if pieces == nil || len(pieces[len(pieces)-1]) >= ckptRecordBytes {
			enc.reset()
			pieces = append(pieces, nil)
		}
		last := len(pieces) - 1
		pieces[last] = enc.appendPoint(pieces[last], p)
		return pieces
	}
}

// persister is a DB's durability state; nil on in-memory databases. It is
// armed (assigned to db.persist) only after restore+replay finish, so
// recovery writes never re-log themselves.
type persister struct {
	opts PersistOptions
	lock *os.File
	wal  *wal

	ckptMu sync.Mutex // one checkpoint at a time
	stop   chan struct{}
	wg     sync.WaitGroup

	restoredPoints  atomic.Uint64
	replayedPoints  atomic.Uint64
	replayedRecords atomic.Uint64
	replaySkipped   atomic.Uint64
	tornTail        atomic.Bool

	checkpoints      atomic.Uint64
	checkpointErrors atomic.Uint64
	lastCkptSeg      atomic.Uint64
	lastCkptUnixNs   atomic.Int64
}

// PersistStats is a snapshot of the durability counters — the recovery
// side of the Stats story (how much the WAL has absorbed, what the last
// restart recovered, how stale the newest checkpoint is).
type PersistStats struct {
	Enabled bool        `json:",omitempty"`
	Dir     string      `json:",omitempty"`
	Fsync   FsyncPolicy `json:",omitempty"`
	// WALAppends counts records (one per Write/WriteBatch) appended this
	// run. WALAppendErrors counts WAL I/O failures: appends that failed
	// (each one failed the write that requested it) and flush/sync errors
	// around rotation, after which records acknowledged during the
	// preceding unsynced window may be missing from the log even though
	// the write path has recovered onto a fresh segment. Non-zero means
	// durability is degraded — alert on it (see docs/OPERATIONS.md).
	// WALFsyncs counts fsync cycles (group commit makes this much smaller
	// than WALAppends under FsyncAlways with concurrent writers).
	WALAppends      uint64
	WALAppendErrors uint64
	WALFsyncs       uint64
	// WALSegment is the segment currently appended to.
	WALSegment uint64
	// RestoredPoints / WALReplayedPoints say what the last open recovered:
	// points loaded from the checkpoint and points replayed from the WAL
	// tail (WALReplayedRecords batches). WALReplaySkipped counts points of
	// either, checkpoint or WAL, that the write path refuses as malformed
	// (duplicate field keys, no fields, an identifier it refuses) and
	// recovery therefore left out. ReplayTornTail reports that
	// the final record was torn — the expected shape of a crash mid-append
	// — and was discarded.
	RestoredPoints     uint64
	WALReplayedPoints  uint64
	WALReplayedRecords uint64
	WALReplaySkipped   uint64
	ReplayTornTail     bool
	// Checkpoint health: count, failures, the WAL segment the newest
	// checkpoint covers up to, and its age (-1 before the first one).
	Checkpoints       uint64
	CheckpointErrors  uint64
	LastCheckpointSeg uint64
	CheckpointAgeNs   int64
}

// CheckpointInfo describes one completed checkpoint.
type CheckpointInfo struct {
	// WALSegment is the first segment NOT covered: replay-on-start begins
	// there. Segments below it were truncated.
	WALSegment uint64
	// Points dumped into the checkpoint file.
	Points int64
	// SegmentsRemoved is how many superseded WAL segments were deleted.
	SegmentsRemoved int
	Took            time.Duration
}

// lockDataDir takes the directory's flock. flock (not O_EXCL) so the lock
// dies with the process: a kill -9 leaves no stale lock to clean up.
func lockDataDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: %s", ErrDirLocked, dir)
	}
	// The pid is for the operator reading the file; the flock is the lock.
	if err = f.Truncate(0); err == nil {
		_, err = fmt.Fprintf(f, "%d\n", os.Getpid())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openPersist restores state from dir into db (checkpoint, then WAL tail),
// then arms db.persist and starts the background flusher and checkpointer.
// Called by OpenDB before the DB is visible to anyone, so the recovery
// writes it issues are the only traffic and are not re-logged.
func openPersist(db *DB, opts PersistOptions) error {
	if opts.Fsync == "" {
		opts.Fsync = FsyncInterval
	}
	switch opts.Fsync {
	case FsyncAlways, FsyncInterval, FsyncOff:
	default:
		return fmt.Errorf("tsdb: unknown fsync policy %q", opts.Fsync)
	}
	if opts.FsyncInterval <= 0 {
		opts.FsyncInterval = 100 * time.Millisecond
	}
	if opts.CheckpointEvery == 0 {
		opts.CheckpointEvery = time.Minute
	}
	walDir := filepath.Join(opts.Dir, walDirName)
	ckptDir := filepath.Join(opts.Dir, ckptDirName)
	for _, d := range []string{opts.Dir, walDir, ckptDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	lock, err := lockDataDir(opts.Dir)
	if err != nil {
		return err
	}
	pr := &persister{opts: opts, lock: lock, stop: make(chan struct{})}
	fail := func(err error) error {
		syscall.Flock(int(lock.Fd()), syscall.LOCK_UN)
		lock.Close()
		return err
	}

	// Leftover temp files are checkpoints whose rename never happened:
	// dead weight from a crash mid-checkpoint, safe to delete.
	tmps, _ := filepath.Glob(filepath.Join(ckptDir, "*.tmp"))
	for _, t := range tmps {
		os.Remove(t)
	}

	// 1. Restore the newest checkpoint, if any.
	replayFrom := uint64(0)
	if seqs, err := ckptFormat().Segments(ckptDir); err != nil {
		return fail(err)
	} else if len(seqs) > 0 {
		replayFrom = seqs[len(seqs)-1]
		if err := pr.loadCheckpoint(db, ckptFormat().SegmentPath(ckptDir, replayFrom)); err != nil {
			return fail(err)
		}
	}

	// 2. Replay the WAL tail: every segment the checkpoint does not cover.
	records, torn, last, err := replayWAL(walDir, replayFrom, pr.apply(db, &pr.replayedPoints))
	pr.replayedRecords.Store(uint64(records))
	pr.tornTail.Store(torn)
	if err != nil {
		return fail(err)
	}

	// 3. Arm the log on a fresh segment after everything on disk — a torn
	// tail is never appended to, so it stays detectable.
	pr.wal, err = openWAL(walDir, max(replayFrom, last)+1, opts.MaxSegmentBytes, opts.Fsync, torn)
	if err != nil {
		return fail(err)
	}
	db.persist = pr

	// 4. Background work: the interval flusher and the checkpointer.
	if opts.Fsync == FsyncInterval {
		// A failed tick is already counted in WALAppendErrors by the sync
		// path itself; the next tick retries.
		pr.every(opts.FsyncInterval, func() { _ = pr.wal.log.Sync() })
	}
	if opts.CheckpointEvery > 0 {
		// Background checkpoint failures are counted in CheckpointErrors
		// by Checkpoint itself; the next tick retries with the WAL intact.
		pr.every(opts.CheckpointEvery, func() { _, _ = db.Checkpoint() })
	}
	return nil
}

// apply is how recovery stores a point, from the checkpoint and from the
// WAL alike: through the write path, counted in n. A point the write path
// refuses as malformed (binaries before the duplicate-field and identifier
// checks could log one) is refused deterministically, so it is skipped and
// counted rather than failing every open.
func (pr *persister) apply(db *DB, n *atomic.Uint64) func(*Point) error {
	return func(p *Point) error {
		switch err := db.Write(p); {
		case err == nil:
			n.Add(1)
		case errors.Is(err, ErrBadRef), errors.Is(err, ErrNoFields):
			pr.replaySkipped.Add(1)
		default:
			return err
		}
		return nil
	}
}

// loadCheckpoint restores the checkpoint at path. Installed by rename, it
// is whole or absent, so any frame that does not check out is corruption,
// not a tear. A file without the magic is a line-protocol checkpoint from
// an older binary: it alone goes through Restore, under that format's
// limits.
func (pr *persister) loadCheckpoint(db *DB, path string) error {
	apply := pr.apply(db, &pr.restoredPoints)
	_, stop, err := ckptFormat().Scan(path, func(payload []byte) error {
		return DecodeRecord(payload, apply)
	})
	if err == nil && stop == seglog.StopBadMagic {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			var n int64
			n, err = db.Restore(f)
			f.Close()
			pr.restoredPoints.Store(uint64(n))
		}
	} else if err == nil && stop != seglog.StopEOF {
		err = errors.New(stop.String())
	}
	if err != nil {
		return fmt.Errorf("tsdb: checkpoint %s corrupt: %w", filepath.Base(path), err)
	}
	return nil
}

// every runs fn each d until close.
func (pr *persister) every(d time.Duration, fn func()) {
	pr.wg.Add(1)
	go func() {
		defer pr.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-pr.stop:
				return
			case <-t.C:
				fn()
			}
		}
	}()
}

// close stops the background goroutines, seals the WAL and releases the
// directory lock. Called from DB.Close after the write barrier.
func (pr *persister) close() error {
	close(pr.stop)
	pr.wg.Wait()
	err := pr.wal.log.Close()
	if e := syscall.Flock(int(pr.lock.Fd()), syscall.LOCK_UN); err == nil {
		err = e
	}
	if e := pr.lock.Close(); err == nil {
		err = e
	}
	return err
}

// logBatch appends one committed write's record to the WAL (dictionary-
// compressed, see wal.go). Caller holds db.commitMu.RLock. An append error
// fails the write that requested it: the in-memory state never runs ahead
// of what a restart can recover (watch PersistStats.WALAppendErrors — a
// full disk surfaces here, not as silent divergence).
func (pr *persister) logBatch(pts []Point) error {
	err := pr.wal.AppendPoints(pts)
	if errors.Is(err, seglog.ErrRecordTooBig) && len(pts) > 1 {
		// A batch too big for one frame splits into several records —
		// WriteBatch promises per-stripe, not per-batch, atomicity anyway.
		if err = pr.logBatch(pts[:len(pts)/2]); err == nil {
			err = pr.logBatch(pts[len(pts)/2:])
		}
	}
	return err
}

// Checkpoint writes an atomic snapshot of the current state and truncates
// the WAL behind it. Safe to call concurrently with writes and queries:
// writers stall only while the stripe they target is being dumped (see the
// cycle description at the top of this file). Returns ErrNoPersist on an
// in-memory DB. The automatic checkpointer calls this on its ticker; the
// HTTP API exposes it as POST /api/checkpoint.
func (db *DB) Checkpoint() (CheckpointInfo, error) {
	pr := db.persist
	if pr == nil {
		return CheckpointInfo{}, ErrNoPersist
	}
	pr.ckptMu.Lock()
	defer pr.ckptMu.Unlock()
	if db.closed.Load() {
		return CheckpointInfo{}, ErrClosedDB
	}
	began := time.Now()

	// The cut: with commitMu held exclusively no write is between its WAL
	// append and its apply, so "state now" == "every record below newSeg".
	db.commitMu.Lock()
	newSeg, err := pr.wal.log.Rotate()
	if err != nil {
		db.commitMu.Unlock()
		pr.checkpointErrors.Add(1)
		return CheckpointInfo{}, err
	}
	for _, st := range db.stripes {
		st.mu.RLock()
	}
	db.commitMu.Unlock()

	// Stage each stripe's dump in memory and release its lock immediately:
	// a writer stalls only while the stripe it targets is being encoded (at
	// memory speed), never behind file I/O. Costs one encoded copy of the
	// retained state — and like Snapshot the records come back sorted by
	// shard start, which restore-into-retention correctness depends on (see
	// stageDump).
	records, points := db.stageDump(true, recordChunk())

	// All file I/O happens lock-free.
	ckptDir := filepath.Join(pr.opts.Dir, ckptDirName)
	if err := ckptFormat().WriteSegment(ckptDir, newSeg, records); err != nil {
		pr.checkpointErrors.Add(1)
		return CheckpointInfo{}, err
	}

	// The new checkpoint supersedes everything older: previous checkpoints
	// and every WAL segment below the cut. Failures here are not fatal —
	// leftovers are skipped on restore and retried next cycle.
	ckptFormat().RemoveBelow(ckptDir, newSeg)
	removed, _ := walFormat().RemoveBelow(filepath.Join(pr.opts.Dir, walDirName), newSeg)

	pr.checkpoints.Add(1)
	pr.lastCkptSeg.Store(newSeg)
	pr.lastCkptUnixNs.Store(began.UnixNano())
	return CheckpointInfo{
		WALSegment: newSeg, Points: points,
		SegmentsRemoved: removed, Took: time.Since(began),
	}, nil
}

// PersistStats snapshots the durability counters; Enabled is false (and
// everything else zero) on an in-memory DB.
func (db *DB) PersistStats() PersistStats {
	pr := db.persist
	if pr == nil {
		return PersistStats{}
	}
	age := int64(-1)
	if last := pr.lastCkptUnixNs.Load(); last > 0 {
		age = time.Now().UnixNano() - last
	}
	ws := pr.wal.log.Stats()
	return PersistStats{
		Enabled: true,
		Dir:     pr.opts.Dir,
		Fsync:   pr.opts.Fsync,

		WALAppends:      ws.Appends,
		WALAppendErrors: ws.Errors,
		WALFsyncs:       ws.Syncs,
		WALSegment:      ws.Segment,

		RestoredPoints:     pr.restoredPoints.Load(),
		WALReplayedPoints:  pr.replayedPoints.Load(),
		WALReplayedRecords: pr.replayedRecords.Load(),
		WALReplaySkipped:   pr.replaySkipped.Load(),
		ReplayTornTail:     pr.tornTail.Load(),

		Checkpoints:       pr.checkpoints.Load(),
		CheckpointErrors:  pr.checkpointErrors.Load(),
		LastCheckpointSeg: pr.lastCkptSeg.Load(),
		CheckpointAgeNs:   age,
	}
}
