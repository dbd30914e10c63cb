package manager

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"godcdo/internal/core"
	"godcdo/internal/dfm"
	"godcdo/internal/evolution"
	"godcdo/internal/naming"
	"godcdo/internal/registry"
	"godcdo/internal/transport"
	"godcdo/internal/version"
)

func framed(recs ...JournalRecord) []byte {
	var buf []byte
	for _, r := range recs {
		buf = append(buf, frameRecord(r.encode())...)
	}
	return buf
}

func openTestJournal(t *testing.T) (*Journal, string) {
	t.Helper()
	path := journalPath(t)
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j, path
}

// TestJournalBatchTornAtEveryOffset cuts a two-record batch (the begin+intent
// a single-instance pass writes) at every byte: the reader returns a prefix of
// whole records — none, begin, or begin+intent — never a damaged one, and a
// journal reopened on the torn file continues the pass sequence from what
// survived.
func TestJournalBatchTornAtEveryOffset(t *testing.T) {
	j, path := openTestJournal(t)
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	if err := j.Current(v(1)); err != nil {
		t.Fatal(err)
	}
	intent := JournalRecord{Op: OpIntent, LOID: loid, From: v(1), To: v(1, 1)}
	l := j.openPass(v(1, 1), []naming.LOID{loid}, "")
	pass, err := l.pass, l.sync(intent)
	if err != nil || pass != 1 {
		t.Fatalf("beginPass = %d, %v", pass, err)
	}
	if st := j.Stats(); st.Records != 3 || st.Syncs != 2 {
		t.Fatalf("stats = %+v, want 3 records in 2 syncs", st)
	}
	whole, err := ReadJournal(path)
	if err != nil || len(whole) != 3 {
		t.Fatalf("ReadJournal = %d records, %v", len(whole), err)
	}
	if whole[1].Op != OpBegin || whole[2].Op != OpIntent || whole[2].Pass != pass {
		t.Fatalf("batch = %+v", whole[1:])
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	batchStart := len(framed(whole[0]))
	beginEnd := batchStart + len(framed(whole[1]))
	if !bytes.Equal(data, framed(whole...)) {
		t.Fatal("file is not the concatenation of its framed records")
	}

	torn := filepath.Join(t.TempDir(), "torn.journal")
	for cut := batchStart; cut <= len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJournal(torn)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := 1
		if cut >= beginEnd {
			want = 2
		}
		if cut == len(data) {
			want = 3
		}
		if len(got) != want || !reflect.DeepEqual(got, whole[:want]) {
			t.Fatalf("cut %d: read %d records %+v, want the first %d whole", cut, len(got), got, want)
		}
		j2, err := OpenJournal(torn)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		l := j2.openPass(v(1, 1), nil, "")
		err = l.sync()
		next := l.pass
		_ = j2.Close()
		wantNext := uint64(1)
		if want >= 2 {
			wantNext = 2
		}
		if err != nil || next != wantNext {
			t.Fatalf("cut %d: next pass = %d, %v, want %d", cut, next, err, wantNext)
		}
	}
}

// TestJournalBatchSink: the sink sees every record of a batch exactly once, in
// file order, and only once the whole batch is on disk; a sink error in the
// middle of a batch fails the append with the batch still durable.
func TestJournalBatchSink(t *testing.T) {
	j, path := openTestJournal(t)
	var seen []JournalRecord
	failAt, wantOnDisk := -1, 3
	j.SetSink(func(r JournalRecord) error {
		onDisk, err := ReadJournal(path)
		if err != nil {
			return err
		}
		if len(onDisk) != wantOnDisk {
			t.Errorf("sink called for record %d with %d records on disk, want the whole batch (%d)",
				len(seen), len(onDisk), wantOnDisk)
		}
		if len(seen) == failAt {
			return errors.New("standby fenced us")
		}
		seen = append(seen, r)
		return nil
	})
	loid := naming.LOID{Domain: 1, Class: 2, Instance: 3}
	batch := []JournalRecord{
		{Op: OpBegin, Pass: 7, Target: v(1, 1), Planned: []naming.LOID{loid}},
		{Op: OpIntent, Pass: 7, LOID: loid, From: v(1), To: v(1, 1)},
		{Op: OpDone, Pass: 7},
	}
	if err := j.AppendBatch(batch...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, batch) {
		t.Fatalf("sink saw %+v, want the batch in order", seen)
	}
	if st := j.Stats(); st.Records != 3 || st.Syncs != 1 || st.Bytes != uint64(len(framed(batch...))) {
		t.Fatalf("stats = %+v, want 3 records, 1 sync, %d bytes", st, len(framed(batch...)))
	}

	seen, failAt, wantOnDisk = nil, 1, 6
	if err := j.AppendBatch(batch...); err == nil {
		t.Fatal("append with a sink failing mid-batch succeeded")
	}
	if len(seen) != 1 {
		t.Fatalf("sink saw %d records before failing, want 1", len(seen))
	}
	recs, err := j.Records()
	if err != nil || len(recs) != 6 {
		t.Fatalf("journal holds %d records (%v), want both batches whole", len(recs), err)
	}
}

// spyInstance wraps an Instance; Apply and ApplyPlan first run before, which
// may inspect the world at the moment the manager touches the instance.
type spyInstance struct {
	Instance
	before  func()
	applies int
	fail    error
}

func (s *spyInstance) Apply(ctx context.Context, d *dfm.Descriptor, v version.ID) (core.ApplyReport, error) {
	if err := s.touch(); err != nil {
		return core.ApplyReport{}, err
	}
	return s.Instance.Apply(ctx, d, v)
}

func (s *spyInstance) ApplyPlan(ctx context.Context, a core.PlanArgs) (core.ApplyReport, error) {
	if err := s.touch(); err != nil {
		return core.ApplyReport{}, err
	}
	return s.Instance.ApplyPlan(ctx, a)
}

func (s *spyInstance) touch() error {
	s.applies++
	if s.before != nil {
		s.before()
	}
	return s.fail
}

// journalled builds a multi-increasing manager with a journal and one adopted
// instance at version 1 behind a spy.
func journalled(t *testing.T) (*Manager, *spyInstance, *Journal, string) {
	t.Helper()
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	j, path := openTestJournal(t)
	m.SetJournal(j)
	obj := f.newDCDO()
	if _, err := obj.ApplyDescriptor(context.Background(), f.descriptorEnabling("en"), v(1)); err != nil {
		t.Fatal(err)
	}
	spy := &spyInstance{Instance: LocalInstance{Obj: obj}}
	if err := m.Adopt(context.Background(), spy, registry.NativeImplType); err != nil {
		t.Fatal(err)
	}
	return m, spy, j, path
}

// TestSinglePassDurabilityPoints reads the journal file back at the two
// moments that matter: when Instance.Apply is entered, begin and intent are
// already on disk; when EvolveInstance returns, applied and done are too. The
// four records cost two fsyncs, and the sink is never handed a record the file
// does not yet hold. RollbackInstance likewise.
func TestSinglePassDurabilityPoints(t *testing.T) {
	m, spy, j, path := journalled(t)
	loid := spy.LOID()
	shipped := 0
	j.SetSink(func(JournalRecord) error {
		shipped++
		onDisk, err := ReadJournal(path)
		if err != nil {
			return err
		}
		if len(onDisk) < shipped {
			t.Errorf("sink handed record %d with only %d on disk", shipped, len(onDisk))
		}
		return nil
	})
	for i, move := range []struct {
		name   string
		run    func(context.Context, naming.LOID, version.ID) error
		from   version.ID
		to     version.ID
		reason string
	}{
		{"evolve", m.EvolveInstance, v(1), v(1, 1), ""},
		{"rollback", m.RollbackInstance, v(1, 1), v(1), passReasonRollback},
	} {
		pass := uint64(i + 1)
		want := []JournalRecord{
			{Op: OpBegin, Pass: pass, Target: move.to, Planned: []naming.LOID{loid}, Reason: move.reason},
			{Op: OpIntent, Pass: pass, LOID: loid, From: move.from, To: move.to},
			{Op: OpApplied, Pass: pass, LOID: loid, To: move.to},
			{Op: OpDone, Pass: pass},
		}
		start, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		spy.before = func() {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			if !bytes.Equal(data[len(start):], framed(want[:2]...)) {
				t.Errorf("%s: at Apply the journal tail is not begin+intent", move.name)
			}
		}
		before := j.Stats()
		if err := move.run(context.Background(), loid, move.to); err != nil {
			t.Fatalf("%s: %v", move.name, err)
		}
		after := j.Stats()
		if after.Syncs-before.Syncs != 2 || after.Records-before.Records != 4 {
			t.Fatalf("%s cost %d syncs for %d records, want 2 for 4",
				move.name, after.Syncs-before.Syncs, after.Records-before.Records)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data[len(start):], framed(want...)) {
			recs, _ := ReadJournal(path)
			t.Fatalf("%s: journal tail is not begin, intent, applied, done: %+v", move.name, recs)
		}
		if got, _ := spy.Version(context.Background()); !got.Equal(move.to) {
			t.Fatalf("%s: instance at %s, want %s", move.name, got, move.to)
		}
	}
	if shipped != 8 {
		t.Fatalf("sink saw %d records, want 8", shipped)
	}
}

// TestSinglePassRefusedAndFailedSequences: a move the style vetoes leaves
// begin+done in one batch and never touches the instance; a move whose apply
// fails leaves begin+intent, then done. Both byte-for-byte what the
// record-at-a-time journal wrote.
func TestSinglePassRefusedAndFailedSequences(t *testing.T) {
	m, spy, j, path := journalled(t)
	loid := spy.LOID()
	ctx := context.Background()
	if err := m.EvolveInstance(ctx, loid, v(1, 1)); err != nil {
		t.Fatal(err)
	}
	start, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	applies, before := spy.applies, j.Stats()

	// 1.1 → 1 is not a descendant: the increasing style refuses.
	if err := m.EvolveInstance(ctx, loid, v(1)); err == nil {
		t.Fatal("style-vetoed evolve succeeded")
	}
	if spy.applies != applies {
		t.Fatal("a refused evolve touched the instance")
	}
	refused := framed(
		JournalRecord{Op: OpBegin, Pass: 2, Target: v(1), Planned: []naming.LOID{loid}},
		JournalRecord{Op: OpDone, Pass: 2},
	)
	data, _ := os.ReadFile(path)
	if !bytes.Equal(data[len(start):], refused) {
		t.Fatal("refused evolve did not leave exactly begin+done")
	}
	if st := j.Stats(); st.Syncs-before.Syncs != 1 {
		t.Fatalf("refused evolve cost %d syncs, want 1", st.Syncs-before.Syncs)
	}

	// An unmanaged LOID is refused the same way.
	ghost := naming.LOID{Domain: 9, Class: 9, Instance: 9}
	if err := m.EvolveInstance(ctx, ghost, v(1, 1)); !errors.Is(err, ErrUnknownInstance) {
		t.Fatalf("err = %v, want ErrUnknownInstance", err)
	}
	unknown := framed(
		JournalRecord{Op: OpBegin, Pass: 3, Target: v(1, 1), Planned: []naming.LOID{ghost}},
		JournalRecord{Op: OpDone, Pass: 3},
	)

	// A rollback whose apply fails: intent was durable, the pass still closes.
	spy.fail = errors.New("disk full")
	before = j.Stats()
	if err := m.RollbackInstance(ctx, loid, v(1)); !errors.Is(err, spy.fail) {
		t.Fatalf("err = %v, want the apply failure", err)
	}
	failed := framed(
		JournalRecord{Op: OpBegin, Pass: 4, Target: v(1), Planned: []naming.LOID{loid}, Reason: passReasonRollback},
		JournalRecord{Op: OpIntent, Pass: 4, LOID: loid, From: v(1, 1), To: v(1)},
		JournalRecord{Op: OpDone, Pass: 4},
	)
	data, _ = os.ReadFile(path)
	want := append(append(append([]byte(nil), refused...), unknown...), failed...)
	if !bytes.Equal(data[len(start):], want) {
		recs, _ := ReadJournal(path)
		t.Fatalf("journal after refused, unknown and failed moves: %+v", recs)
	}
	if st := j.Stats(); st.Syncs-before.Syncs != 2 {
		t.Fatalf("failed rollback cost %d syncs, want 2", st.Syncs-before.Syncs)
	}
	if rec, _ := m.RecordOf(loid); !rec.Version.Equal(v(1, 1)) {
		t.Fatalf("table row moved to %s by a failed rollback", rec.Version)
	}
	// Every pass is closed: a restart has nothing to recover.
	report, err := m.Recover(ctx)
	if err != nil || report.Passes != 0 {
		t.Fatalf("Recover = %+v, %v, want a clean journal", report, err)
	}
}

// TestSinglePassCrashImages cuts a real single-instance pass's journal after
// its first, second and third record — the images a crash can leave now that
// the records travel in two batches — and recovers each: the pass is finished
// and the instance ends on the target whether or not the apply had landed.
func TestSinglePassCrashImages(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rollback bool
		records  int  // whole records the crash left
		applied  bool // the apply landed before the crash
		verified bool // recovery finds the instance already on the target
	}{
		{"begin only", false, 1, false, false},
		{"begin+intent, apply not landed", false, 2, false, false},
		{"begin+intent, apply landed", false, 2, true, true},
		{"begin+intent+applied", false, 3, true, true},
		{"rollback: begin+intent, apply not landed", true, 2, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			// Multi-increasing would veto the retreat if recovery re-ran the
			// style check on a rollback pass.
			m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
			path := journalPath(t)
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			m.SetJournal(j)
			from, to := v(1), v(1, 1)
			if tc.rollback {
				from, to = to, from
			}
			inst := &flakyInstance{loid: naming.LOID{Domain: 1, Class: 1, Instance: 1}, ver: from}
			ctx := context.Background()
			if err := m.Adopt(ctx, inst, registry.NativeImplType); err != nil {
				t.Fatal(err)
			}
			move := m.EvolveInstance
			if tc.rollback {
				move = m.RollbackInstance
			}
			if err := move(ctx, inst.loid, to); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			recs, err := ReadJournal(path)
			if err != nil || len(recs) != 4 {
				t.Fatalf("pass left %d records, %v", len(recs), err)
			}
			if err := os.WriteFile(path, framed(recs[:tc.records]...), 0o644); err != nil {
				t.Fatal(err)
			}
			if !tc.applied {
				inst.mu.Lock()
				inst.ver = from
				inst.mu.Unlock()
			}

			m2 := restartManager(t, m, evolution.MultiIncreasing, evolution.Explicit, path)
			defer m2.Journal().Close()
			if err := m2.Adopt(ctx, inst, registry.NativeImplType); err != nil {
				t.Fatal(err)
			}
			report, err := m2.Recover(ctx)
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if report.Passes != 1 {
				t.Fatalf("recovered %d passes, want 1", report.Passes)
			}
			wantVerified, wantResumed := 0, 1
			if tc.verified {
				wantVerified, wantResumed = 1, 0
			}
			if len(report.Verified) != wantVerified || len(report.Resumed) != wantResumed {
				t.Fatalf("verified=%v resumed=%v, want %d and %d", report.Verified, report.Resumed, wantVerified, wantResumed)
			}
			if got, _ := inst.Version(ctx); !got.Equal(to) {
				t.Fatalf("instance at %s after recovery, want %s", got, to)
			}
			if again, err := m2.Recover(ctx); err != nil || again.Passes != 0 {
				t.Fatalf("second recover = %+v, %v, want a no-op", again, err)
			}
		})
	}
}

// TestConcurrentSinglePassesLeaveCleanJournal: two EvolveInstance calls on
// different LOIDs interleave their batches in whatever order the journal lock
// grants; every pass is closed, each pass's records are in order, and Recover
// reports nothing to do.
func TestConcurrentSinglePassesLeaveCleanJournal(t *testing.T) {
	f := newFixture(t)
	m := f.newManager(t, evolution.MultiIncreasing, evolution.Explicit)
	j, path := openTestJournal(t)
	m.SetJournal(j)
	ctx := context.Background()
	loids := make([]naming.LOID, 2)
	for i := range loids {
		obj := f.newDCDO()
		if err := m.CreateInstance(ctx, LocalInstance{Obj: obj}, v(1), registry.NativeImplType); err != nil {
			t.Fatal(err)
		}
		loids[i] = obj.LOID()
	}
	const rounds = 25
	var wg sync.WaitGroup
	for _, loid := range loids {
		wg.Add(1)
		go func(loid naming.LOID) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := m.EvolveInstance(ctx, loid, v(1, 1)); err != nil {
					t.Errorf("evolve %s: %v", loid, err)
					return
				}
				if err := m.RollbackInstance(ctx, loid, v(1)); err != nil {
					t.Errorf("rollback %s: %v", loid, err)
					return
				}
			}
		}(loid)
	}
	wg.Wait()
	recs, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	perPass := make(map[uint64][]JournalOp)
	for _, r := range recs {
		perPass[r.Pass] = append(perPass[r.Pass], r.Op)
	}
	if len(perPass) != 2*2*rounds {
		t.Fatalf("journal holds %d passes, want %d", len(perPass), 2*2*rounds)
	}
	for pass, ops := range perPass {
		if !reflect.DeepEqual(ops, []JournalOp{OpBegin, OpIntent, OpApplied, OpDone}) {
			t.Fatalf("pass %d = %v", pass, ops)
		}
	}
	if st := j.Stats(); st.Syncs != 2*uint64(len(perPass)) {
		t.Fatalf("%d passes cost %d syncs, want two each", len(perPass), st.Syncs)
	}
	report, err := m.Recover(ctx)
	if err != nil || report.Passes != 0 {
		t.Fatalf("Recover = %+v, %v, want a clean journal", report, err)
	}
}

// TestUnjournalledMoveQuarantinesNothing: a move whose intent the journal
// cannot take (here its shipping sink cannot reach a standby) fails without
// touching the instance, and the instance is not quarantined: an unreachable
// standby says nothing about the instance. A single move and a fleet pass
// alike.
func TestUnjournalledMoveQuarantinesNothing(t *testing.T) {
	m, spy, j, _ := journalled(t)
	loid := spy.LOID()
	ctx := context.Background()
	j.SetSink(func(r JournalRecord) error {
		if r.Op == OpIntent {
			return transport.ErrUnreachable
		}
		return nil
	})
	for _, move := range []struct {
		name string
		run  func() error
	}{
		{"EvolveInstance", func() error { return m.EvolveInstance(ctx, loid, v(1, 1)) }},
		{"EvolveFleet", func() error { _, err := m.EvolveFleet(ctx, v(1, 1), nil); return err }},
	} {
		if err := move.run(); !errors.Is(err, transport.ErrUnreachable) {
			t.Fatalf("%s: err = %v, want the shipping failure", move.name, err)
		}
		if spy.applies != 0 {
			t.Fatalf("%s: touched the instance without a shipped intent", move.name)
		}
		if q, reason := m.IsQuarantined(loid); q {
			t.Fatalf("%s: quarantined the instance: %s", move.name, reason)
		}
	}
}
