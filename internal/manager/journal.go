package manager

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"godcdo/internal/naming"
	"godcdo/internal/vault"
	"godcdo/internal/version"
	"godcdo/internal/wire"
)

// The evolution journal is a write-ahead log that makes multi-instance
// evolution crash-safe. Before the manager touches any instance it durably
// records what it is about to do (a pass: target version plus the planned
// instances), then per-instance intent/applied records as it goes, and a
// done record when the pass completes. A manager that crashes mid-pass can
// replay the journal on restart (see Recover) and either resume the
// interrupted evolution or roll stragglers back — instead of silently
// stranding the fleet on a mix of versions.
//
// On-disk format: a sequence of records, each framed as
//
//	[magic 0xDA][uvarint payload length][4-byte big-endian CRC32][payload]
//
// Appends are fsynced before the corresponding instance operation proceeds,
// which is what makes the intent durable. The reader is tolerant of a
// truncated or corrupt tail (the normal shape of a crash mid-append): it
// returns every record up to the first damaged frame and ignores the rest.

// journalFormatVersion guards the record payload format; bump on change.
const journalFormatVersion = 1

// journalMagic begins every journal frame so a desynchronised or foreign
// file is detected immediately.
const journalMagic = 0xDA

// maxJournalRecord bounds one record's payload (a begin record lists every
// planned instance; 16 MiB is far beyond any realistic fleet).
const maxJournalRecord = 16 << 20

// ErrNoJournal is returned by operations that require a journal when the
// manager has none installed.
var ErrNoJournal = errors.New("manager: no evolution journal installed")

// JournalOp enumerates journal record types.
type JournalOp uint8

// Journal record types.
const (
	// OpCurrent records a current-version designation, so recovery can
	// restore the manager's designated version (the store image does not
	// carry it).
	OpCurrent JournalOp = iota + 1
	// OpBegin opens a pass: the target version and the planned instances.
	OpBegin
	// OpIntent records that the manager is about to apply the pass target
	// to one instance (with the instance's pre-evolution version, which is
	// what rollback restores).
	OpIntent
	// OpApplied records that one instance verifiably reached the target.
	OpApplied
	// OpSkipped records that one instance was deliberately left out of the
	// pass (quarantined / unreachable).
	OpSkipped
	// OpDone closes a pass; a begin without a matching done is an
	// interrupted evolution.
	OpDone
	// OpRolloutStart opens a supervised rollout: Target is the rollout's
	// target version, From the baseline to roll back to, and Reason carries
	// the serialised policy so a restarted supervisor can resume with the
	// same SLO guard and wave plan. Pass is the rollout identifier (drawn
	// from the same sequence as evolution passes).
	OpRolloutStart
	// OpRolloutWave records that one wave of instances (Planned) finished
	// baking healthy and was promoted.
	OpRolloutWave
	// OpRolloutRollback records the supervisor's decision to abandon the
	// target and return promoted instances to the baseline (Reason says why).
	OpRolloutRollback
	// OpRolloutDone closes a rollout; Reason is its terminal disposition
	// ("completed", "rolled-back", or "aborted"). A rollout start without a
	// matching done is an interrupted rollout the supervisor resumes.
	OpRolloutDone
	// Op 11 recorded a replica group's promotion within a pass. Nothing
	// read it: recovery learns a group's primary from its published set and
	// its members' probes. Its number stays reserved, so the ops after it
	// keep theirs on disk.
	_
	// OpMgrEpoch records a manager-epoch bump (Pass carries the epoch): a
	// standby manager journals one before taking over, fencing the late
	// writes of the primary it replaces. Recovery carries the latest epoch
	// record through compaction, like OpCurrent.
	OpMgrEpoch
	// OpPolicySet records a distribution-policy designation for LOID
	// (Reason carries the serialised document). Recovery carries the
	// latest document per LOID through compaction — like OpCurrent — and
	// the records ship to the standby, so a takeover resumes reconciling
	// toward the same desired state.
	OpPolicySet
	// OpReconcile records one convergence step the policy reconciler is
	// about to take for LOID (Reason describes it: "add <endpoint>",
	// "demote <endpoint>", ...). The reconciler is level-triggered —
	// desired state lives in OpPolicySet records — so these are an audit
	// trail, not resume state, and compaction drops them.
	OpReconcile
)

// String implements fmt.Stringer.
func (op JournalOp) String() string {
	switch op {
	case OpCurrent:
		return "current"
	case OpBegin:
		return "begin"
	case OpIntent:
		return "intent"
	case OpApplied:
		return "applied"
	case OpSkipped:
		return "skipped"
	case OpDone:
		return "done"
	case OpRolloutStart:
		return "rollout-start"
	case OpRolloutWave:
		return "rollout-wave"
	case OpRolloutRollback:
		return "rollout-rollback"
	case OpRolloutDone:
		return "rollout-done"
	case OpMgrEpoch:
		return "mgr-epoch"
	case OpPolicySet:
		return "policy-set"
	case OpReconcile:
		return "reconcile"
	default:
		return fmt.Sprintf("op(%d)", int(op))
	}
}

// JournalRecord is one decoded journal entry. Fields not meaningful for a
// record's op are zero.
type JournalRecord struct {
	Op      JournalOp
	Pass    uint64
	Target  version.ID    // OpCurrent, OpBegin, OpRolloutStart
	Planned []naming.LOID // OpBegin, OpRolloutWave
	LOID    naming.LOID   // OpIntent, OpApplied, OpSkipped
	From    version.ID    // OpIntent, OpRolloutStart (baseline)
	To      version.ID    // OpIntent, OpApplied
	Reason  string        // OpSkipped, OpBegin (pass kind), rollout records
}

// encode serialises the record payload (without the frame).
func (r JournalRecord) encode() []byte {
	e := wire.NewEncoder(64)
	e.PutUvarint(journalFormatVersion)
	e.PutUvarint(uint64(r.Op))
	e.PutUvarint(r.Pass)
	e.PutUintSlice(r.Target.Encode())
	e.PutUvarint(uint64(len(r.Planned)))
	for _, loid := range r.Planned {
		e.PutString(loid.String())
	}
	if r.LOID == (naming.LOID{}) {
		e.PutString("")
	} else {
		e.PutString(r.LOID.String())
	}
	e.PutUintSlice(r.From.Encode())
	e.PutUintSlice(r.To.Encode())
	e.PutString(r.Reason)
	return e.Bytes()
}

// decodeJournalRecord parses one record payload.
func decodeJournalRecord(payload []byte) (JournalRecord, error) {
	var r JournalRecord
	dec := wire.NewDecoder(payload)
	format, err := dec.Uvarint()
	if err != nil {
		return r, err
	}
	if format != journalFormatVersion {
		return r, fmt.Errorf("unsupported journal format %d", format)
	}
	op, err := dec.Uvarint()
	if err != nil {
		return r, err
	}
	r.Op = JournalOp(op)
	if r.Pass, err = dec.Uvarint(); err != nil {
		return r, err
	}
	readVersion := func() (version.ID, error) {
		segs, err := dec.UintSlice()
		if err != nil {
			return nil, err
		}
		return version.Decode(segs)
	}
	if r.Target, err = readVersion(); err != nil {
		return r, err
	}
	n, err := dec.Uvarint()
	if err != nil {
		return r, err
	}
	if n > uint64(dec.Remaining()) {
		return r, fmt.Errorf("planned count %d exceeds record", n)
	}
	for i := uint64(0); i < n; i++ {
		s, err := dec.String()
		if err != nil {
			return r, err
		}
		loid, err := naming.ParseLOID(s)
		if err != nil {
			return r, err
		}
		r.Planned = append(r.Planned, loid)
	}
	loidStr, err := dec.String()
	if err != nil {
		return r, err
	}
	if loidStr != "" {
		if r.LOID, err = naming.ParseLOID(loidStr); err != nil {
			return r, err
		}
	}
	if r.From, err = readVersion(); err != nil {
		return r, err
	}
	if r.To, err = readVersion(); err != nil {
		return r, err
	}
	if r.Reason, err = dec.String(); err != nil {
		return r, err
	}
	return r, nil
}

// frameRecord wraps a payload in the journal frame.
func frameRecord(payload []byte) []byte {
	return appendFrame(make([]byte, 0, len(payload)+10), payload)
}

// appendFrame appends payload's frame to buf.
func appendFrame(buf, payload []byte) []byte {
	buf = append(buf, journalMagic)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// Journal is the durable evolution WAL. Methods are nil-safe: a nil *Journal
// is the disabled state and every operation is a successful no-op, so the
// manager's evolution paths call through unconditionally.
type Journal struct {
	mu       sync.Mutex
	path     string
	f        *os.File
	nextPass uint64
	sink     func(JournalRecord) error

	records, syncs, bytes atomic.Uint64 // see Stats
}

// OpenJournal opens (or creates) the journal at path, scanning any existing
// records to continue the pass-identifier sequence. A torn final record from
// an earlier crash is tolerated.
func OpenJournal(path string) (*Journal, error) {
	// A compaction that crashed between writing its temp file and the rename
	// strands a ".durable-*" file beside the journal. It must never be
	// adopted (its contents may be a torn half-image) and nothing else will
	// clean it, so sweep the directory before reading. Open runs before any
	// concurrent compaction can be in flight, so the sweep cannot race a
	// live WriteDurable.
	if _, err := vault.RemoveOrphanedTemps(filepath.Dir(path)); err != nil {
		return nil, fmt.Errorf("manager: open journal %q: %w", path, err)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	for _, r := range recs {
		if r.Pass >= next {
			next = r.Pass + 1
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("manager: open journal %q: %w", path, err)
	}
	// Make the journal's existence itself durable.
	if err := vault.SyncDir(filepath.Dir(path)); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("manager: open journal %q: %w", path, err)
	}
	return &Journal{path: path, f: f, nextPass: next}, nil
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close releases the journal's file handle. Nil-safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Append durably appends one record: a batch of one. Nil-safe.
func (j *Journal) Append(r JournalRecord) error {
	return j.AppendBatch(r)
}

// AppendBatch durably appends recs, in order, with one write and one fsync:
// when it returns, every record survives a crash that happens any time
// afterwards. A crash mid-batch leaves a prefix of whole records followed by
// at most one torn frame, which the reader drops — so a batch may only group
// records that recovery would accept one at a time. Nil-safe.
func (j *Journal) AppendBatch(recs ...JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(recs)
}

// appendLocked is the journal's one write path.
func (j *Journal) appendLocked(recs []JournalRecord) error {
	if j.f == nil {
		return fmt.Errorf("manager: journal %q is closed", j.path)
	}
	var buf []byte
	for _, r := range recs {
		buf = appendFrame(buf, r.encode())
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("manager: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("manager: journal append: %w", err)
	}
	j.records.Add(uint64(len(recs)))
	j.syncs.Add(1)
	j.bytes.Add(uint64(len(buf)))
	// Replication hook: the records are locally durable, now stream them to
	// the standby. Shipping failures propagate — in particular a fencing
	// rejection from a standby that has taken over, which is how a deposed
	// primary manager finds out it must stop mid-pass.
	if j.sink != nil {
		for _, r := range recs {
			if err := j.sink(r); err != nil {
				return fmt.Errorf("manager: journal shipping: %w", err)
			}
		}
	}
	return nil
}

// JournalStats counts what the journal has written since it was opened.
type JournalStats struct {
	Records uint64 // records appended
	Syncs   uint64 // fsyncs issued by appends (one per batch)
	Bytes   uint64 // framed bytes appended
}

// Stats returns the journal's append counters. Nil-safe.
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	return JournalStats{Records: j.records.Load(), Syncs: j.syncs.Load(), Bytes: j.bytes.Load()}
}

// SetSink installs a function called with every record after it is durably
// appended, still under the journal lock so the stream preserves append
// order. The journal shipper to a standby manager is the intended sink; a
// sink error fails the Append that triggered it. Nil-safe.
func (j *Journal) SetSink(sink func(JournalRecord) error) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = sink
	j.mu.Unlock()
}

// passReasonRollback on an OpBegin record marks a style-exempt rollback pass.
const passReasonRollback = "rollback"

// passLog writes one pass's records under the executor's rule: a record
// handed to sync reaches the disk, with every record held before it, in one
// batch before sync returns; a record handed to add is held for the next
// sync. Nil-safe through its journal.
type passLog struct {
	j       *Journal
	pass    uint64
	pending []JournalRecord
}

// openPass allocates a pass identifier (0 for a nil journal) and holds the
// pass's begin record for its first sync.
func (j *Journal) openPass(target version.ID, planned []naming.LOID, reason string) *passLog {
	l := &passLog{j: j}
	if j != nil {
		j.mu.Lock()
		l.pass = j.nextPass
		j.nextPass++
		j.mu.Unlock()
	}
	l.add(JournalRecord{Op: OpBegin, Target: target.Clone(), Planned: planned, Reason: reason})
	return l
}

// add holds r, stamped with the pass, for the next sync.
func (l *passLog) add(r JournalRecord) {
	r.Pass = l.pass
	l.pending = append(l.pending, r)
}

// sync appends recs behind the held records and writes them all in one
// batch. With nothing to write it writes nothing.
func (l *passLog) sync(recs ...JournalRecord) error {
	for _, r := range recs {
		l.add(r)
	}
	batch := l.pending
	l.pending = nil
	if len(batch) == 0 {
		return nil
	}
	return l.j.AppendBatch(batch...)
}

// RolloutStart allocates a rollout identifier and durably records the
// rollout's target, baseline, and serialised policy. Nil-safe (returns 0).
func (j *Journal) RolloutStart(target, baseline version.ID, policy string) (uint64, error) {
	if j == nil {
		return 0, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	id := j.nextPass
	j.nextPass++
	err := j.appendLocked([]JournalRecord{{
		Op:     OpRolloutStart,
		Pass:   id,
		Target: target.Clone(),
		From:   baseline.Clone(),
		Reason: policy,
	}})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// RolloutWave records that the given instances baked healthy and were
// promoted under the rollout. Nil-safe.
func (j *Journal) RolloutWave(rollout uint64, promoted []naming.LOID) error {
	return j.Append(JournalRecord{Op: OpRolloutWave, Pass: rollout, Planned: promoted})
}

// RolloutRollback records the supervisor's decision to roll the rollout
// back. Nil-safe.
func (j *Journal) RolloutRollback(rollout uint64, reason string) error {
	return j.Append(JournalRecord{Op: OpRolloutRollback, Pass: rollout, Reason: reason})
}

// RolloutDone closes the rollout with its terminal disposition. Nil-safe.
func (j *Journal) RolloutDone(rollout uint64, disposition string) error {
	return j.Append(JournalRecord{Op: OpRolloutDone, Pass: rollout, Reason: disposition})
}

// Current records a current-version designation. Nil-safe.
func (j *Journal) Current(v version.ID) error {
	return j.Append(JournalRecord{Op: OpCurrent, Target: v.Clone()})
}

// MgrEpoch records a manager-epoch bump; Pass carries the epoch. Nil-safe.
func (j *Journal) MgrEpoch(epoch uint64) error {
	return j.Append(JournalRecord{Op: OpMgrEpoch, Pass: epoch})
}

// PolicySet records a distribution-policy designation for loid; doc is the
// serialised document. Nil-safe.
func (j *Journal) PolicySet(loid naming.LOID, doc string) error {
	return j.Append(JournalRecord{Op: OpPolicySet, LOID: loid, Reason: doc})
}

// Reconcile records one policy-reconciler convergence step for loid.
// Nil-safe.
func (j *Journal) Reconcile(loid naming.LOID, action string) error {
	return j.Append(JournalRecord{Op: OpReconcile, LOID: loid, Reason: action})
}

// Records reads the journal back from disk (see ReadJournal). Nil-safe.
func (j *Journal) Records() ([]JournalRecord, error) {
	if j == nil {
		return nil, nil
	}
	j.mu.Lock()
	path := j.path
	j.mu.Unlock()
	return ReadJournal(path)
}

// Compact atomically replaces the journal's contents with the given records
// (typically just the latest current-version designation, once every pass
// has been recovered). The replacement is durable: the new image is written
// through vault.WriteDurable and the append handle reopened on it. Nil-safe.
func (j *Journal) Compact(keep []JournalRecord) error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var buf []byte
	for _, r := range keep {
		buf = appendFrame(buf, r.encode())
	}
	if j.f != nil {
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("manager: compact journal: %w", err)
		}
		j.f = nil
	}
	if err := vault.WriteDurable(j.path, buf); err != nil {
		return fmt.Errorf("manager: compact journal: %w", err)
	}
	f, err := os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("manager: compact journal: %w", err)
	}
	j.f = f
	return nil
}

// ReadJournal reads every intact record from the journal at path. A missing
// file yields no records. A torn or corrupt frame ends the read: everything
// before it is returned, everything at and after it is ignored — the WAL
// convention for a crash mid-append. Only genuine I/O failures return an
// error.
func ReadJournal(path string) ([]JournalRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("manager: read journal %q: %w", path, err)
	}
	var out []JournalRecord
	off := 0
	for off < len(data) {
		if data[off] != journalMagic {
			break
		}
		length, n := binary.Uvarint(data[off+1:])
		if n <= 0 || length > maxJournalRecord {
			break
		}
		hdr := off + 1 + n
		if hdr+4+int(length) > len(data) {
			break // torn tail
		}
		sum := binary.BigEndian.Uint32(data[hdr:])
		payload := data[hdr+4 : hdr+4+int(length)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // bit rot or torn write
		}
		rec, err := decodeJournalRecord(payload)
		if err != nil {
			break
		}
		out = append(out, rec)
		off = hdr + 4 + int(length)
	}
	return out, nil
}
