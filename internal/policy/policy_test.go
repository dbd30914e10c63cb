package policy

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatalf("Default().Validate: %v", err)
	}
	if p.Degree != 1 || p.ReadPreference != ReadPrimary || p.Consistency != ConsistencyStrong {
		t.Fatalf("unexpected default: %+v", p)
	}
	if p.BackupReadsAllowed() {
		t.Fatal("default policy must not allow backup reads")
	}
}

func TestParseRoundTrip(t *testing.T) {
	doc := `{"degree":3,"read_preference":"backup-ok","consistency":"eventual","candidates":["a","b","c"],"anti_affinity":true}`
	p, err := Parse(doc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.Degree != 3 || p.ReadPreference != ReadBackupOK || !p.AntiAffinity {
		t.Fatalf("parsed: %+v", p)
	}
	if !p.BackupReadsAllowed() {
		t.Fatal("backup-ok + eventual must allow backup reads")
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-Parse(String): %v", err)
	}
	if !p.Equal(back) {
		t.Fatalf("JSON round trip changed the document: %+v vs %+v", p, back)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"zero degree", `{"degree":0}`, "degree 0"},
		{"huge degree", `{"degree":99}`, "exceeds maximum"},
		{"bad read pref", `{"degree":1,"read_preference":"nearest"}`, "read preference"},
		{"bad consistency", `{"degree":1,"consistency":"linear"}`, "consistency"},
		{"unknown field", `{"degree":1,"shards":4}`, "unknown field"},
		{"retired retry default", `{"degree":1,"retry_idempotent":true}`, "unknown field"},
		{"retired max attempts", `{"degree":1,"max_attempts":5}`, "unknown field"},
		{"dup candidate", `{"degree":2,"candidates":["a","a"]}`, "duplicate candidate"},
		{"too few candidates", `{"degree":3,"candidates":["a","b"]}`, "cannot satisfy degree"},
		{"garbage", `degree=3`, "parse"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.doc)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error containing %q", tc.doc, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Parse(%q) = %v, want error containing %q", tc.doc, err, tc.want)
			}
		})
	}
}

func TestWireRoundTrip(t *testing.T) {
	p := DistributionPolicy{
		Degree:         3,
		ReadPreference: ReadBackupOK,
		Consistency:    ConsistencyEventual,
		Candidates:     []string{"inproc://a", "inproc://b", "inproc://c", "inproc://d"},
		AntiAffinity:   true,
	}
	back, err := DecodeWire(p.EncodeWire())
	if err != nil {
		t.Fatalf("DecodeWire: %v", err)
	}
	if !p.Equal(back) {
		t.Fatalf("wire round trip changed the document: %+v vs %+v", p, back)
	}

	// Append-only discipline: a decoder must tolerate trailing bytes a
	// newer encoder appended.
	grown := append(p.EncodeWire(), 0x7, 0x7, 0x7)
	back, err = DecodeWire(grown)
	if err != nil {
		t.Fatalf("DecodeWire with trailing bytes: %v", err)
	}
	if !p.Equal(back) {
		t.Fatalf("trailing bytes changed the decode: %+v", back)
	}
}

func TestDecodeWireRejectsCorrupt(t *testing.T) {
	if _, err := DecodeWire(nil); err == nil {
		t.Fatal("DecodeWire(nil) succeeded")
	}
	if _, err := DecodeWire([]byte{99}); err == nil {
		t.Fatal("DecodeWire(bad format) succeeded")
	}
	// Format 1 still carried the retry fields: refused, not misread.
	v1 := DistributionPolicy{Degree: 1}.EncodeWire()
	v1[0] = 1
	if _, err := DecodeWire(v1); err == nil || !strings.Contains(err.Error(), "unsupported format 1") {
		t.Fatalf("DecodeWire(format 1) = %v, want unsupported format", err)
	}
	// Truncated mid-candidates.
	p := DistributionPolicy{Degree: 3, Candidates: []string{"a", "b", "c"}}
	buf := p.EncodeWire()
	if _, err := DecodeWire(buf[:len(buf)-2]); err == nil {
		t.Fatal("DecodeWire(truncated) succeeded")
	}
}

func TestDiffAndEqual(t *testing.T) {
	a := Default()
	b := DistributionPolicy{Degree: 3, ReadPreference: ReadBackupOK, Consistency: ConsistencyEventual}
	if a.Equal(b) {
		t.Fatal("distinct documents compare equal")
	}
	diff := a.Diff(b)
	if len(diff) != 3 {
		t.Fatalf("Diff = %v, want 3 lines", diff)
	}
	for _, want := range []string{"degree: 1 -> 3", "read_preference: primary -> backup-ok", "consistency: strong -> eventual"} {
		found := false
		for _, line := range diff {
			if line == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("Diff missing %q: %v", want, diff)
		}
	}
	if got := a.Diff(a); len(got) != 0 {
		t.Fatalf("self-diff = %v", got)
	}
	// Normalisation: unset enums equal explicit defaults.
	if !a.Equal(DistributionPolicy{Degree: 1}) {
		t.Fatal("normalised comparison failed")
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := DistributionPolicy{Degree: 2, Candidates: []string{"a", "b"}}
	c := p.Clone()
	c.Candidates[0] = "x"
	if p.Candidates[0] != "a" {
		t.Fatal("Clone aliased the candidate slice")
	}
}
