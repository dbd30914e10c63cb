package manager

import (
	"cmp"
	"context"
	"fmt"
	"sync"
	"time"

	"godcdo/internal/rpc"
	"godcdo/internal/transport"
	"godcdo/internal/wire"
)

// Manager replication: the primary manager's journal records stream to a
// standby over the mgr.repl service, so the standby holds a byte-equivalent
// WAL and can finish (or roll back) an interrupted fleet pass after taking
// over. Takeover is fenced by a manager epoch: the standby bumps it before
// acting, after which the deposed primary's next shipped record is refused
// with rpc.ErrFenced — failing its in-flight Append and halting its pass.

// Shipment is one shipped journal record and the epoch of the manager that
// shipped it.
type Shipment struct {
	Epoch  uint64
	Record JournalRecord
}

// MethodMgrReplAppend appends one shipped journal record to a standby's
// journal, hosted at rpc.MgrReplLOID. The frame is the shipper's epoch
// followed by the encoded record.
var MethodMgrReplAppend = rpc.Method[Shipment, rpc.None]{Name: "mgr.repl.append",
	Args: rpc.Codec[Shipment]{Encode: encodeJournalShipment, Decode: decodeJournalShipment}, Result: rpc.NoneCodec}

func encodeJournalShipment(s Shipment) []byte {
	payload := s.Record.encode()
	e := wire.NewEncoder(len(payload) + 8)
	e.PutUvarint(s.Epoch)
	e.PutBytes(payload)
	return e.Bytes()
}

func decodeJournalShipment(b []byte) (s Shipment, err error) {
	d := wire.NewDecoder(b)
	if s.Epoch, err = d.Uvarint(); err != nil {
		return s, fmt.Errorf("epoch: %w", err)
	}
	payload, err := d.Bytes()
	if err != nil {
		return s, fmt.Errorf("record: %w", err)
	}
	if s.Record, err = decodeJournalRecord(payload); err != nil {
		return s, fmt.Errorf("record: %w", err)
	}
	return s, nil
}

// JournalShipper streams journal records to a standby manager's ReplService.
// Install it as the journal's sink: j.SetSink(shipper.Ship).
type JournalShipper struct {
	// Dialer reaches the standby.
	Dialer transport.Dialer
	// Endpoint is the standby node's dialable endpoint.
	Endpoint string
	// Epoch is the shipping manager's epoch (1 for a first-era primary). A
	// standby that has taken over holds a higher epoch and fences us.
	Epoch uint64
	// Timeout bounds each shipment. Zero means 2 s.
	Timeout time.Duration
}

// Ship sends one record to the standby. An rpc.ErrFenced result means the
// standby took over and this manager must stop acting for the fleet.
func (s *JournalShipper) Ship(rec JournalRecord) error {
	_, err := MethodMgrReplAppend.CallAt(context.Background(), s.Dialer, s.Endpoint, rpc.MgrReplLOID,
		cmp.Or(s.Timeout, 2*time.Second), Shipment{Epoch: s.Epoch, Record: rec})
	return err
}

// Sync ships every record already in j, bringing a standby attached after
// journal activity up to date before live streaming begins.
func (s *JournalShipper) Sync(j *Journal) error {
	recs, err := j.Records()
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if err := s.Ship(rec); err != nil {
			return err
		}
	}
	return nil
}

// ReplService is the standby side of journal shipping: a table hosted at
// rpc.MgrReplLOID that appends shipped records to the standby's own journal
// and enforces the manager epoch. It is hosted directly on the standby
// node's dispatcher, never registered with the binding agent (like the
// health service — it is addressed by endpoint).
type ReplService struct {
	rpc.Table

	// mu is held across each append, so a Bump waits for the append in
	// flight: once it returns, no record shipped in an older epoch can
	// land after the takeover's epoch record.
	mu       sync.Mutex
	epoch    uint64
	journal  *Journal
	received uint64
}

// NewReplService returns a service accepting shipments at the given epoch
// into journal (the standby's own journal file, which must have no sink —
// shipped records are not re-shipped).
func NewReplService(journal *Journal, epoch uint64) *ReplService {
	if epoch == 0 {
		epoch = 1
	}
	s := &ReplService{journal: journal, epoch: epoch}
	s.Table = rpc.Serve(MethodMgrReplAppend.Handle(func(_ context.Context, sh Shipment) (rpc.None, error) {
		return rpc.None{}, s.append(sh)
	}))
	return s
}

// append journals one shipment unless its epoch is fenced, and counts it
// once it is durable.
func (s *ReplService) append(sh Shipment) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sh.Epoch < s.epoch {
		return fmt.Errorf("%w: shipment epoch %d < manager epoch %d", rpc.ErrFenced, sh.Epoch, s.epoch)
	}
	s.epoch = sh.Epoch
	if err := s.journal.Append(sh.Record); err != nil {
		return err
	}
	s.received++
	return nil
}

// Epoch returns the service's current manager epoch.
func (s *ReplService) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Received reports how many records have been accepted.
func (s *ReplService) Received() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.received
}

// Bump advances the epoch past every era seen so far and returns the new
// epoch. The standby calls it at takeover; from that moment the deposed
// primary's shipments are fenced.
func (s *ReplService) Bump() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch++
	return s.epoch
}

// Standby couples a cold manager (instances adopted, journal receiving
// shipped records through a ReplService) with the takeover procedure.
type Standby struct {
	// Mgr is the standby manager. Its journal must be the one the Service
	// appends shipped records to.
	Mgr *Manager
	// Service receives the primary's journal stream and owns the epoch.
	Service *ReplService
}

// Takeover makes the standby the acting manager: it bumps the manager epoch
// (fencing the deposed primary's future shipments), durably journals the
// bump, and runs recovery over the shipped journal — resuming or rolling
// back whatever fleet pass the dead primary left open. Idempotent in the
// same sense Recover is: a second takeover finds nothing open.
func (s *Standby) Takeover(ctx context.Context) (RecoveryReport, uint64, error) {
	epoch := s.Service.Bump()
	if err := s.Mgr.Journal().MgrEpoch(epoch); err != nil {
		return RecoveryReport{}, epoch, fmt.Errorf("takeover: journal epoch bump: %w", err)
	}
	rep, err := s.Mgr.Recover(ctx)
	if err != nil {
		return rep, epoch, fmt.Errorf("takeover: recover: %w", err)
	}
	return rep, epoch, nil
}

// Monitor probes the primary manager's node with health until it misses
// `threshold` consecutive probes, then performs Takeover. It blocks until
// takeover completes or ctx ends. interval is the probe cadence. Misses
// count only after the primary has answered at least once: a standby
// brought up before (or without) its primary waits for first contact
// instead of seizing an epoch the primary then trips over on its first
// shipment — "stand by for" means take over when the primary dies, not
// when it has not started yet.
func (s *Standby) Monitor(ctx context.Context, health *rpc.HealthClient, interval time.Duration, threshold int) (RecoveryReport, uint64, error) {
	if threshold < 1 {
		threshold = 1
	}
	misses := 0
	seen := false
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return RecoveryReport{}, 0, ctx.Err()
		case <-ticker.C:
		}
		if _, err := health.Ping(ctx); err != nil {
			if !seen {
				continue
			}
			misses++
			if misses >= threshold {
				return s.Takeover(ctx)
			}
			continue
		}
		seen = true
		misses = 0
	}
}
