package wire

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// The golden frames pin the wire format byte for byte: every encoder must
// produce exactly these bytes, and the decoder must read them back field for
// field. A change here is a protocol change, visible to every deployed peer.

// goldenMeta is the trailing metadata carried by the "+meta" cases: every
// metadata tag set, so the whole section is pinned.
func goldenMeta(ev *Envelope) *Envelope {
	ev.TraceID = 0x1122334455
	ev.SpanID = 0x66
	ev.Deadline = 1700000000123456789
	ev.TraceFlags = TraceFlagUnsampled
	return ev
}

// goldenBatch builds a batch envelope of kind k around subs.
func goldenBatch(k Kind, id uint64, subs ...*Envelope) *Envelope {
	run := AppendBatchHeader(nil, len(subs))
	var scratch []byte
	for _, sub := range subs {
		run, scratch = AppendBatchEntry(run, sub, scratch)
	}
	return &Envelope{Kind: k, ID: id, Payload: run}
}

// goldenCases lists the pinned frames in a fixed order.
var goldenCases = []struct {
	name string
	mk   func() *Envelope
}{
	{"request", func() *Envelope {
		return &Envelope{Kind: KindRequest, ID: 300, Target: "loid:1.1.1", Method: "price", Payload: []byte{0x14}}
	}},
	{"response", func() *Envelope {
		return &Envelope{Kind: KindResponse, ID: 300, Payload: []byte{0x07, 0xd0}}
	}},
	{"error", func() *Envelope {
		return &Envelope{Kind: KindError, ID: 301, Code: CodeNoSuchFunction, ErrorMsg: "no such function"}
	}},
	{"batch-request", func() *Envelope {
		return goldenBatch(KindBatchRequest, 302,
			&Envelope{Kind: KindRequest, Target: "loid:1.1.1", Method: "price", Payload: []byte{0x14}},
			&Envelope{Kind: KindRequest, Target: "loid:1.1.2", Method: "get"})
	}},
	{"batch-response", func() *Envelope {
		return goldenBatch(KindBatchResponse, 302,
			&Envelope{Kind: KindResponse, Payload: []byte{0x07, 0xd0}},
			&Envelope{Kind: KindError, Code: CodeNoSuchFunction, ErrorMsg: "no such function"})
	}},
}

// goldenHex is the expected encoding of each goldenCases entry, and of
// the same case with goldenMeta applied ("+meta").
var goldenHex = map[string]string{
	"request":             "01ac020a6c6f69643a312e312e3105707269636500000114",
	"request+meta":        "01ac020a6c6f69643a312e312e3105707269636500000114040106d588cd9192020201660309959a97ece39fe7cb17040101",
	"response":            "02ac02000000000207d0",
	"response+meta":       "02ac02000000000207d0040106d588cd9192020201660309959a97ece39fe7cb17040101",
	"error":               "03ad02000003106e6f20737563682066756e6374696f6e00",
	"error+meta":          "03ad02000003106e6f20737563682066756e6374696f6e00040106d588cd9192020201660309959a97ece39fe7cb17040101",
	"batch-request":       "05ae02000000002e021701000a6c6f69643a312e312e31057072696365000001141401000a6c6f69643a312e312e3203676574000000",
	"batch-request+meta":  "05ae02000000002e021701000a6c6f69643a312e312e31057072696365000001141401000a6c6f69643a312e312e3203676574000000040106d588cd9192020201660309959a97ece39fe7cb17040101",
	"batch-response":      "06ae02000000002302090200000000000207d0170300000003106e6f20737563682066756e6374696f6e00",
	"batch-response+meta": "06ae02000000002302090200000000000207d0170300000003106e6f20737563682066756e6374696f6e00040106d588cd9192020201660309959a97ece39fe7cb17040101",
}

// sameEnvelope reports whether got carries exactly want's fields.
func sameEnvelope(t *testing.T, got, want *Envelope) {
	t.Helper()
	if got.Kind != want.Kind || got.ID != want.ID || got.Target != want.Target ||
		got.Method != want.Method || got.Code != want.Code || got.ErrorMsg != want.ErrorMsg ||
		!bytes.Equal(got.Payload, want.Payload) || got.TraceID != want.TraceID ||
		got.SpanID != want.SpanID || got.Deadline != want.Deadline || got.TraceFlags != want.TraceFlags {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

func TestWireGoldenFrames(t *testing.T) {
	for _, tc := range goldenCases {
		for _, meta := range []bool{false, true} {
			key := tc.name
			want := tc.mk()
			if meta {
				key += "+meta"
				want = goldenMeta(want)
			}
			t.Run(key, func(t *testing.T) {
				golden, err := hex.DecodeString(goldenHex[key])
				if err != nil || len(golden) == 0 {
					t.Fatalf("no golden frame for %s", key)
				}

				// Every encoder produces exactly the golden bytes.
				if got := want.Encode(); !bytes.Equal(got, golden) {
					t.Fatalf("Encode = %x, want %x", got, golden)
				}
				pooled := want.EncodePooled()
				if !bytes.Equal(pooled, golden) {
					t.Fatalf("EncodePooled = %x, want %x", pooled, golden)
				}
				PutBuf(pooled)
				prefix := []byte{0xAA, 0xBB}
				if got := want.AppendEncode(prefix); !bytes.Equal(got[:2], prefix) || !bytes.Equal(got[2:], golden) {
					t.Fatalf("AppendEncode = %x, want aabb%x", got, golden)
				}

				// The golden bytes decode back field for field, batch runs
				// included.
				got, err := DecodeEnvelope(golden)
				if err != nil {
					t.Fatal(err)
				}
				sameEnvelope(t, got, want)
				if want.Kind == KindBatchRequest || want.Kind == KindBatchResponse {
					subs, err := DecodeBatchRun(got.Payload, nil)
					if err != nil {
						t.Fatal(err)
					}
					wantSubs, _ := DecodeBatchRun(want.Payload, nil)
					if len(subs) != 2 || len(wantSubs) != 2 {
						t.Fatalf("batch run decoded %d sub-envelopes, want 2", len(subs))
					}
					for i := range subs {
						sameEnvelope(t, &subs[i], &wantSubs[i])
					}
				}

				// Legacy tolerance: metadata is a pure trailing section. A
				// pre-metadata decoder reads the frame and sees the same core
				// fields, and the frame without metadata is its exact prefix.
				old, err := legacyDecode(golden)
				if err != nil {
					t.Fatalf("legacy decoder rejected the frame: %v", err)
				}
				core := *want
				core.TraceID, core.SpanID, core.Deadline, core.TraceFlags = 0, 0, 0, 0
				sameEnvelope(t, old, &core)
				bare, _ := hex.DecodeString(goldenHex[tc.name])
				if !bytes.HasPrefix(golden, bare) {
					t.Fatalf("%s does not extend %s: metadata is not purely trailing", key, tc.name)
				}
			})
		}
	}
}
