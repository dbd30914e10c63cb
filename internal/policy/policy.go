// Package policy defines the per-object declarative distribution policy:
// one document, carried on naming bindings and journalled by the manager,
// that states how a LOID is distributed — replication degree, placement
// candidates and anti-affinity, where reads may go, and consistency hints.
// The layers that used to hard-code these decisions
// (replica groups, the rpc client, node flags) interpret the document
// instead; retuning a live object is rewriting its document, never
// redeploying code. The package is a leaf: it depends only on the wire
// codec, so naming, rpc, replica, and the manager can all import it.
package policy

import (
	"encoding/json"
	"fmt"
	"strings"

	"godcdo/internal/wire"
)

// ReadPreference says where a client may send idempotent reads.
type ReadPreference string

// Read preferences.
const (
	// ReadPrimary routes every call to the primary (the safe default:
	// reads observe the latest acknowledged write).
	ReadPrimary ReadPreference = "primary"
	// ReadBackupOK lets clients spread idempotent reads across the whole
	// replica set. A read served by a backup may trail the primary by the
	// in-flight shipment window — choose it for read-mostly objects where
	// that staleness is acceptable.
	ReadBackupOK ReadPreference = "backup-ok"
)

// Consistency is the document's consistency hint. It does not change the
// replication protocol (state shipping is synchronous either way); it
// records the contract the object's owner asserts, and read routing refuses
// backup reads for strong-consistency documents unless the read preference
// explicitly overrides.
type Consistency string

// Consistency hints.
const (
	// ConsistencyStrong asserts reads must observe the latest write.
	ConsistencyStrong Consistency = "strong"
	// ConsistencyEventual tolerates the shipment-window staleness backup
	// reads can observe.
	ConsistencyEventual Consistency = "eventual"
)

// formatVersion guards the wire encoding; bump on incompatible change.
// Decoders ignore trailing bytes, so compatible growth appends fields.
const formatVersion = 2

// MaxDegree bounds the replication degree a document may ask for; beyond
// this the synchronous shipping fan-out is the wrong mechanism anyway.
const MaxDegree = 16

// DistributionPolicy is the declarative distribution document for one LOID.
// The zero value is not meaningful; start from Default() or Parse.
type DistributionPolicy struct {
	// Degree is the desired replica count including the primary. 1 means
	// unreplicated. The reconciler converges the live group onto this
	// number: it re-replicates onto a fresh candidate after a member loss
	// and demotes excess members after a decrease.
	Degree int `json:"degree"`
	// ReadPreference says where idempotent reads may be served
	// (ReadPrimary when empty).
	ReadPreference ReadPreference `json:"read_preference,omitempty"`
	// Consistency is the object's consistency hint (ConsistencyStrong when
	// empty).
	Consistency Consistency `json:"consistency,omitempty"`
	// Candidates constrains placement: endpoints replicas may live on.
	// Empty means the reconciler's global candidate pool.
	Candidates []string `json:"candidates,omitempty"`
	// AntiAffinity, when set, tells the reconciler to avoid candidates
	// already hosting a member of another policy-managed group, spreading
	// groups across the fleet instead of stacking them.
	AntiAffinity bool `json:"anti_affinity,omitempty"`
}

// Default returns the document every LOID implicitly has before anyone
// writes one: unreplicated, primary reads, strong consistency.
func Default() DistributionPolicy {
	return DistributionPolicy{
		Degree:         1,
		ReadPreference: ReadPrimary,
		Consistency:    ConsistencyStrong,
	}
}

// Normalize fills empty enum fields with their defaults and returns the
// result; it does not validate.
func (p DistributionPolicy) Normalize() DistributionPolicy {
	if p.ReadPreference == "" {
		p.ReadPreference = ReadPrimary
	}
	if p.Consistency == "" {
		p.Consistency = ConsistencyStrong
	}
	return p
}

// Validate checks the document's invariants.
func (p DistributionPolicy) Validate() error {
	if p.Degree < 1 {
		return fmt.Errorf("policy: degree %d < 1", p.Degree)
	}
	if p.Degree > MaxDegree {
		return fmt.Errorf("policy: degree %d exceeds maximum %d", p.Degree, MaxDegree)
	}
	switch p.ReadPreference {
	case "", ReadPrimary, ReadBackupOK:
	default:
		return fmt.Errorf("policy: unknown read preference %q", p.ReadPreference)
	}
	switch p.Consistency {
	case "", ConsistencyStrong, ConsistencyEventual:
	default:
		return fmt.Errorf("policy: unknown consistency %q", p.Consistency)
	}
	seen := make(map[string]bool, len(p.Candidates))
	for _, c := range p.Candidates {
		if c == "" {
			return fmt.Errorf("policy: empty candidate endpoint")
		}
		if seen[c] {
			return fmt.Errorf("policy: duplicate candidate %q", c)
		}
		seen[c] = true
	}
	if p.Degree > 1 && len(p.Candidates) > 0 && len(p.Candidates) < p.Degree {
		return fmt.Errorf("policy: %d candidates cannot satisfy degree %d", len(p.Candidates), p.Degree)
	}
	return nil
}

// Clone deep-copies the document.
func (p DistributionPolicy) Clone() DistributionPolicy {
	if len(p.Candidates) > 0 {
		p.Candidates = append([]string(nil), p.Candidates...)
	}
	return p
}

// Equal compares two documents after normalisation, so an unset enum and
// its explicit default are the same policy.
func (p DistributionPolicy) Equal(o DistributionPolicy) bool {
	a, b := p.Normalize(), o.Normalize()
	if a.Degree != b.Degree || a.ReadPreference != b.ReadPreference ||
		a.Consistency != b.Consistency || a.AntiAffinity != b.AntiAffinity {
		return false
	}
	if len(a.Candidates) != len(b.Candidates) {
		return false
	}
	for i := range a.Candidates {
		if a.Candidates[i] != b.Candidates[i] {
			return false
		}
	}
	return true
}

// BackupReadsAllowed reports whether the document lets clients serve
// idempotent reads off backups: the read preference must say so, and the
// consistency hint must tolerate it.
func (p DistributionPolicy) BackupReadsAllowed() bool {
	return p.ReadPreference == ReadBackupOK && p.Consistency != ConsistencyStrong
}

// Diff returns human-readable "field: old -> new" lines describing what
// changes when moving from p to o (both normalised). Empty means the
// documents are equal.
func (p DistributionPolicy) Diff(o DistributionPolicy) []string {
	a, b := p.Normalize(), o.Normalize()
	var out []string
	if a.Degree != b.Degree {
		out = append(out, fmt.Sprintf("degree: %d -> %d", a.Degree, b.Degree))
	}
	if a.ReadPreference != b.ReadPreference {
		out = append(out, fmt.Sprintf("read_preference: %s -> %s", a.ReadPreference, b.ReadPreference))
	}
	if a.Consistency != b.Consistency {
		out = append(out, fmt.Sprintf("consistency: %s -> %s", a.Consistency, b.Consistency))
	}
	if strings.Join(a.Candidates, ",") != strings.Join(b.Candidates, ",") {
		out = append(out, fmt.Sprintf("candidates: [%s] -> [%s]",
			strings.Join(a.Candidates, " "), strings.Join(b.Candidates, " ")))
	}
	if a.AntiAffinity != b.AntiAffinity {
		out = append(out, fmt.Sprintf("anti_affinity: %t -> %t", a.AntiAffinity, b.AntiAffinity))
	}
	return out
}

// String renders the compact JSON form (the journalled representation).
func (p DistributionPolicy) String() string {
	b, err := json.Marshal(p.Normalize())
	if err != nil {
		// Marshal of a plain struct cannot fail; keep the signature honest.
		return fmt.Sprintf("policy(degree=%d)", p.Degree)
	}
	return string(b)
}

// Parse decodes a JSON document, normalises it, and validates it. Unknown
// fields are rejected so a typoed field name fails loudly instead of
// silently meaning the default.
func Parse(doc string) (DistributionPolicy, error) {
	dec := json.NewDecoder(strings.NewReader(doc))
	dec.DisallowUnknownFields()
	var p DistributionPolicy
	if err := dec.Decode(&p); err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: parse: %w", err)
	}
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return DistributionPolicy{}, err
	}
	return p, nil
}

// EncodeWire serialises the document for transport (binding-agent lookup
// responses carry it). Append-only: decoders ignore trailing bytes, so new
// fields go at the end under the same format version.
func (p DistributionPolicy) EncodeWire() []byte {
	p = p.Normalize()
	e := wire.NewEncoder(48)
	e.PutUvarint(formatVersion)
	e.PutUvarint(uint64(p.Degree))
	e.PutString(string(p.ReadPreference))
	e.PutString(string(p.Consistency))
	putBool(e, p.AntiAffinity)
	e.PutUvarint(uint64(len(p.Candidates)))
	for _, c := range p.Candidates {
		e.PutString(c)
	}
	return e.Bytes()
}

// DecodeWire parses an EncodeWire payload.
func DecodeWire(buf []byte) (DistributionPolicy, error) {
	dec := wire.NewDecoder(buf)
	format, err := dec.Uvarint()
	if err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode: %w", err)
	}
	if format != formatVersion {
		return DistributionPolicy{}, fmt.Errorf("policy: unsupported format %d", format)
	}
	var p DistributionPolicy
	degree, err := dec.Uvarint()
	if err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode degree: %w", err)
	}
	p.Degree = int(degree)
	pref, err := dec.String()
	if err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode read preference: %w", err)
	}
	p.ReadPreference = ReadPreference(pref)
	cons, err := dec.String()
	if err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode consistency: %w", err)
	}
	p.Consistency = Consistency(cons)
	if p.AntiAffinity, err = getBool(dec); err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode anti-affinity: %w", err)
	}
	n, err := dec.Uvarint()
	if err != nil {
		return DistributionPolicy{}, fmt.Errorf("policy: decode candidate count: %w", err)
	}
	if n > uint64(dec.Remaining()) {
		return DistributionPolicy{}, fmt.Errorf("policy: candidate count %d exceeds payload", n)
	}
	for i := uint64(0); i < n; i++ {
		c, err := dec.String()
		if err != nil {
			return DistributionPolicy{}, fmt.Errorf("policy: decode candidate: %w", err)
		}
		p.Candidates = append(p.Candidates, c)
	}
	p = p.Normalize()
	if err := p.Validate(); err != nil {
		return DistributionPolicy{}, err
	}
	return p, nil
}

func putBool(e *wire.Encoder, v bool) {
	if v {
		e.PutUvarint(1)
	} else {
		e.PutUvarint(0)
	}
}

func getBool(dec *wire.Decoder) (bool, error) {
	v, err := dec.Uvarint()
	if err != nil {
		return false, err
	}
	return v != 0, nil
}
