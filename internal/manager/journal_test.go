package manager

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/policy"
)

func journalPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "evolution.journal")
}

func TestJournalRoundTrip(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()

	a := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	b := naming.LOID{Domain: 1, Class: 2, Instance: 4}
	target := v(1, 1)

	if err := j.Current(v(1)); err != nil {
		t.Fatalf("Current: %v", err)
	}
	l := j.openPass(target, []naming.LOID{a, b}, "")
	if err := l.sync(); err != nil {
		t.Fatalf("begin pass: %v", err)
	}
	pass := l.pass
	if pass != 1 {
		t.Fatalf("first pass = %d, want 1", pass)
	}
	if err := j.Append(JournalRecord{Op: OpIntent, Pass: pass, LOID: a, From: v(1), To: target}); err != nil {
		t.Fatalf("Intent: %v", err)
	}
	if err := j.Append(JournalRecord{Op: OpApplied, Pass: pass, LOID: a, To: target}); err != nil {
		t.Fatalf("Applied: %v", err)
	}
	if err := j.Append(JournalRecord{Op: OpSkipped, Pass: pass, LOID: b, Reason: "quarantined"}); err != nil {
		t.Fatalf("Skipped: %v", err)
	}
	if err := j.Append(JournalRecord{Op: OpDone, Pass: pass}); err != nil {
		t.Fatalf("Done: %v", err)
	}

	recs, err := j.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	wantOps := []JournalOp{OpCurrent, OpBegin, OpIntent, OpApplied, OpSkipped, OpDone}
	if len(recs) != len(wantOps) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantOps))
	}
	for i, op := range wantOps {
		if recs[i].Op != op {
			t.Fatalf("record %d op = %s, want %s", i, recs[i].Op, op)
		}
	}
	if !recs[0].Target.Equal(v(1)) {
		t.Fatalf("current target = %s, want %s", recs[0].Target, v(1))
	}
	begin := recs[1]
	if !begin.Target.Equal(target) || len(begin.Planned) != 2 || begin.Planned[0] != a || begin.Planned[1] != b {
		t.Fatalf("begin record = %+v", begin)
	}
	intent := recs[2]
	if intent.LOID != a || !intent.From.Equal(v(1)) || !intent.To.Equal(target) || intent.Pass != pass {
		t.Fatalf("intent record = %+v", intent)
	}
	if recs[4].Reason != "quarantined" {
		t.Fatalf("skip reason = %q", recs[4].Reason)
	}
}

func TestJournalPassSequenceSurvivesReopen(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	l1, l2 := j.openPass(v(1), nil, ""), j.openPass(v(1, 1), nil, "")
	_, _ = l1.sync(), l2.sync()
	if p1, p2 := l1.pass, l2.pass; p1 != 1 || p2 != 2 {
		t.Fatalf("passes = %d, %d", p1, p2)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	l3 := j2.openPass(v(1, 1), nil, "")
	_ = l3.sync()
	if p3 := l3.pass; p3 != 3 {
		t.Fatalf("pass after reopen = %d, want 3", p3)
	}
}

// TestJournalOpenSweepsOrphanedTemps simulates a compaction crash: the temp
// image was written and fsynced but the rename never happened, leaving a
// ".durable-*" file beside the journal. Reopening must remove the orphan
// (never adopt it) and read the original journal intact.
func TestJournalOpenSweepsOrphanedTemps(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Current(v(1)); err != nil {
		t.Fatalf("Current: %v", err)
	}
	l := j.openPass(v(1, 1), nil, "")
	_ = l.sync()
	pass := l.pass
	if err := j.Append(JournalRecord{Op: OpDone, Pass: pass}); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The crashed compaction's would-be image: a valid journal holding only
	// a different designation, abandoned pre-rename. If open adopted it, the
	// pass history (and the real designation) would silently vanish.
	dir := filepath.Dir(path)
	orphan := frameRecord(JournalRecord{Op: OpCurrent, Target: v(9)}.encode())
	for i := 0; i < 2; i++ {
		tmp, err := os.CreateTemp(dir, ".durable-*")
		if err != nil {
			t.Fatalf("create orphan: %v", err)
		}
		if _, err := tmp.Write(orphan); err != nil {
			t.Fatalf("write orphan: %v", err)
		}
		if err := tmp.Close(); err != nil {
			t.Fatalf("close orphan: %v", err)
		}
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	recs, err := j2.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 3 || recs[0].Op != OpCurrent || !recs[0].Target.Equal(v(1)) {
		t.Fatalf("journal after sweep = %+v, want the original 3 records", recs)
	}
	leftovers, err := filepath.Glob(filepath.Join(dir, ".durable-*"))
	if err != nil {
		t.Fatalf("glob: %v", err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("orphaned temp files survived open: %v", leftovers)
	}
	// The sweep must not disturb a working journal: the next compaction's
	// own temp-and-rename still succeeds.
	if err := j2.Compact(recs[:1]); err != nil {
		t.Fatalf("Compact after sweep: %v", err)
	}
}

func TestJournalToleratesTornTail(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	l := j.openPass(v(1, 1), nil, "")
	_ = l.sync()
	pass := l.pass
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	if err := j.Append(JournalRecord{Op: OpIntent, Pass: pass, LOID: loid, From: v(1), To: v(1, 1)}); err != nil {
		t.Fatalf("Intent: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a crash mid-append: chop bytes off the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal after truncation: %v", err)
	}
	if len(recs) != 1 || recs[0].Op != OpBegin {
		t.Fatalf("after torn tail got %+v, want just the begin record", recs)
	}

	// A flipped bit in the tail record's payload must also stop the read at
	// the checksum, without affecting earlier records.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("restore: %v", err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	recs, err = ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal after corruption: %v", err)
	}
	if len(recs) != 1 || recs[0].Op != OpBegin {
		t.Fatalf("after bit flip got %+v, want just the begin record", recs)
	}
}

// TestJournalReplicationOps round-trips a manager-epoch bump, written
// inside an open pass, through a close and re-read, exactly like the
// evolution ops it rides beside.
func TestJournalReplicationOps(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	l := j.openPass(v(2), []naming.LOID{loid}, "")
	if err := l.sync(); err != nil {
		t.Fatalf("begin pass: %v", err)
	}
	pass := l.pass
	if err := j.Append(JournalRecord{Op: OpSkipped, Pass: pass, LOID: loid, Reason: "inproc://replica-b"}); err != nil {
		t.Fatalf("Skipped: %v", err)
	}
	if err := j.MgrEpoch(7); err != nil {
		t.Fatalf("MgrEpoch: %v", err)
	}
	if err := j.Append(JournalRecord{Op: OpDone, Pass: pass}); err != nil {
		t.Fatalf("Done: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	wantOps := []JournalOp{OpBegin, OpSkipped, OpMgrEpoch, OpDone}
	if len(recs) != len(wantOps) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantOps))
	}
	for i, op := range wantOps {
		if recs[i].Op != op {
			t.Fatalf("record %d op = %s, want %s", i, recs[i].Op, op)
		}
	}
	skipped := recs[1]
	if skipped.Pass != pass || skipped.LOID != loid || skipped.Reason != "inproc://replica-b" {
		t.Fatalf("skipped record = %+v", skipped)
	}
	if recs[2].Pass != 7 {
		t.Fatalf("epoch record pass = %d, want 7", recs[2].Pass)
	}
}

// TestJournalTornTailOnReplicatedRecord is the torn-tail test with the tail
// being a streamed/replicated record: a manager that crashes while fsyncing
// an epoch bump (or a standby that crashes mid-shipped-append) must reopen
// to the intact prefix, not reject the journal.
func TestJournalTornTailOnReplicatedRecord(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	l := j.openPass(v(1, 1), []naming.LOID{loid}, "")
	_ = l.sync()
	pass := l.pass
	if err := j.Append(JournalRecord{Op: OpSkipped, Pass: pass, LOID: loid, Reason: "inproc://replica-b"}); err != nil {
		t.Fatalf("Skipped: %v", err)
	}
	if err := j.MgrEpoch(3); err != nil {
		t.Fatalf("MgrEpoch: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal after truncation: %v", err)
	}
	if len(recs) != 2 || recs[0].Op != OpBegin || recs[1].Op != OpSkipped {
		t.Fatalf("after torn epoch tail got %+v, want begin+skipped", recs)
	}

	// Corrupt the tail payload instead: the checksum must stop the read at
	// the same place.
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("corrupt: %v", err)
	}
	recs, err = ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal after corruption: %v", err)
	}
	if len(recs) != 2 || recs[1].Op != OpSkipped {
		t.Fatalf("after bit flip got %+v, want begin+skipped", recs)
	}
}

// TestJournalSink checks the shipping hook: every successfully fsynced
// append reaches the sink in order, and a sink failure fails the Append that
// triggered it (a fenced ex-primary must not keep journalling locally as if
// it still led the fleet).
func TestJournalSink(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()

	var shipped []JournalOp
	var fail error
	j.SetSink(func(r JournalRecord) error {
		if fail != nil {
			return fail
		}
		shipped = append(shipped, r.Op)
		return nil
	})

	l := j.openPass(v(1, 1), nil, "")
	if err := l.sync(); err != nil {
		t.Fatalf("begin pass: %v", err)
	}
	pass := l.pass
	if err := j.MgrEpoch(2); err != nil {
		t.Fatalf("MgrEpoch: %v", err)
	}
	want := []JournalOp{OpBegin, OpMgrEpoch}
	if len(shipped) != len(want) || shipped[0] != want[0] || shipped[1] != want[1] {
		t.Fatalf("shipped = %v, want %v", shipped, want)
	}

	fail = errors.New("standby fenced us")
	if err := j.Append(JournalRecord{Op: OpDone, Pass: pass}); err == nil {
		t.Fatal("Done with failing sink: want error, got nil")
	}
	// The record still landed locally (fsync precedes shipping): a re-read
	// sees it even though the Append reported the shipping failure.
	recs, err := j.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if recs[len(recs)-1].Op != OpDone {
		t.Fatalf("tail op = %s, want %s", recs[len(recs)-1].Op, OpDone)
	}

	j.SetSink(nil)
	if err := j.Current(v(1, 1)); err != nil {
		t.Fatalf("Current after clearing sink: %v", err)
	}
}

func TestJournalCompact(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	l := j.openPass(v(1, 1), nil, "")
	_ = l.sync()
	pass := l.pass
	_ = j.Append(JournalRecord{Op: OpDone, Pass: pass})
	_ = j.Current(v(1, 1))

	if err := j.Compact([]JournalRecord{{Op: OpCurrent, Target: v(1, 1)}}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	recs, err := j.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	if len(recs) != 1 || recs[0].Op != OpCurrent || !recs[0].Target.Equal(v(1, 1)) {
		t.Fatalf("after compact got %+v", recs)
	}

	// The journal stays appendable after compaction.
	if err := j.openPass(v(1, 1), nil, "").sync(); err != nil {
		t.Fatalf("begin pass after compact: %v", err)
	}
	recs, _ = j.Records()
	if len(recs) != 2 {
		t.Fatalf("after post-compact append got %d records", len(recs))
	}
}

func TestJournalMissingFile(t *testing.T) {
	recs, err := ReadJournal(filepath.Join(t.TempDir(), "nope.journal"))
	if err != nil || recs != nil {
		t.Fatalf("missing file: recs=%v err=%v", recs, err)
	}
}

func TestJournalNilIsNoOp(t *testing.T) {
	var j *Journal
	l := j.openPass(v(1), nil, "")
	if err := l.sync(); l.pass != 0 || err != nil {
		t.Fatalf("nil begin pass: pass=%d err=%v", l.pass, err)
	}
	if err := errors.Join(
		j.Append(JournalRecord{Op: OpDone}),
		j.openPass(v(1), nil, "").sync(JournalRecord{Op: OpDone}),
		j.Current(v(1)),
		j.Compact(nil),
		j.Close(),
	); err != nil {
		t.Fatalf("nil journal op: %v", err)
	}
	if recs, err := j.Records(); recs != nil || err != nil {
		t.Fatalf("nil Records: %v %v", recs, err)
	}
}

func TestJournalPolicyOps(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	loid := naming.LOID{Domain: 2, Class: 3, Instance: 4}
	doc := `{"degree":3,"read_preference":"backup-ok"}`
	if err := j.PolicySet(loid, doc); err != nil {
		t.Fatalf("PolicySet: %v", err)
	}
	if err := j.Reconcile(loid, "add inproc:n1"); err != nil {
		t.Fatalf("Reconcile: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal: %v", err)
	}
	wantOps := []JournalOp{OpPolicySet, OpReconcile}
	if len(recs) != len(wantOps) {
		t.Fatalf("got %d records, want %d", len(recs), len(wantOps))
	}
	for i, op := range wantOps {
		if recs[i].Op != op {
			t.Fatalf("record %d op = %s, want %s", i, recs[i].Op, op)
		}
	}
	if recs[0].LOID != loid || recs[0].Reason != doc {
		t.Fatalf("policy-set record = %+v", recs[0])
	}
	if recs[1].LOID != loid || recs[1].Reason != "add inproc:n1" {
		t.Fatalf("reconcile record = %+v", recs[1])
	}
	if got := OpPolicySet.String(); got != "policy-set" {
		t.Fatalf("OpPolicySet.String() = %q", got)
	}
	if got := OpReconcile.String(); got != "reconcile" {
		t.Fatalf("OpReconcile.String() = %q", got)
	}
}

// A torn tail on a policy designation must not take the intact prefix with
// it: the standby recovering from a shipped journal keeps every fully
// fsynced designation and loses only the interrupted append.
func TestJournalTornTailOnPolicyRecord(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	loid := naming.LOID{Domain: 2, Class: 3, Instance: 4}
	if err := j.PolicySet(loid, `{"degree":2}`); err != nil {
		t.Fatalf("PolicySet #1: %v", err)
	}
	if err := j.PolicySet(loid, `{"degree":3}`); err != nil {
		t.Fatalf("PolicySet #2: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatalf("ReadJournal after truncation: %v", err)
	}
	if len(recs) != 1 || recs[0].Op != OpPolicySet || recs[0].Reason != `{"degree":2}` {
		t.Fatalf("after torn policy tail got %+v, want the first designation only", recs)
	}
}

// Compaction (run by Recover) must carry the latest policy designation per
// LOID forward and drop superseded ones plus transient reconcile audit
// records — a compacted journal still tells a future restart what every
// object's distribution should be.
func TestJournalCompactKeepsLatestPolicy(t *testing.T) {
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	loidA := naming.LOID{Domain: 2, Class: 3, Instance: 1}
	loidB := naming.LOID{Domain: 2, Class: 3, Instance: 2}
	docA1 := policy.DistributionPolicy{Degree: 1}.Normalize().String()
	docA2 := func() string {
		p := policy.Default()
		p.Degree = 3
		p.ReadPreference = policy.ReadBackupOK
		p.Consistency = policy.ConsistencyEventual
		return p.Normalize().String()
	}()
	docB := policy.Default().String()
	_ = j.PolicySet(loidA, docA1)
	_ = j.PolicySet(loidB, docB)
	_ = j.Reconcile(loidA, "add inproc:n1")
	_ = j.PolicySet(loidA, docA2) // supersedes docA1
	_ = j.Reconcile(loidA, "demote inproc:n1")
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j2.Close()
	m := New(evolution.MultiGeneral, evolution.Explicit)
	m.SetJournal(j2)
	report, err := m.Recover(context.Background())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if report.Policies != 2 {
		t.Fatalf("recovery restored %d policies, want 2", report.Policies)
	}
	if p, ok := m.PolicyOf(loidA); !ok || p.Degree != 3 {
		t.Fatalf("loidA recovered policy = %+v ok=%v, want the superseding degree-3 doc", p, ok)
	}

	recs, err := j2.Records()
	if err != nil {
		t.Fatalf("Records: %v", err)
	}
	var polA, polB, reconciles int
	for _, r := range recs {
		switch r.Op {
		case OpPolicySet:
			switch r.LOID {
			case loidA:
				polA++
				if r.Reason != docA2 {
					t.Fatalf("compaction kept %q for loidA, want the latest %q", r.Reason, docA2)
				}
			case loidB:
				polB++
			}
		case OpReconcile:
			reconciles++
		}
	}
	if polA != 1 || polB != 1 || reconciles != 0 {
		t.Fatalf("compacted journal: %d/%d policy-set, %d reconcile records: %+v", polA, polB, reconciles, recs)
	}

	// A second recovery from the compacted journal still sees both.
	m2 := New(evolution.MultiGeneral, evolution.Explicit)
	m2.SetJournal(j2)
	report2, err := m2.Recover(context.Background())
	if err != nil || report2.Policies != 2 {
		t.Fatalf("second recovery = %+v err=%v", report2, err)
	}
}
