package preprocessor

import (
	"bytes"
	"encoding/gob"
	"testing"

	"repro/internal/cond"
)

// TestPayloadCodecPoisoned: header-cache payloads come back from a durable
// store, so a malformed formula table must fail to decode instead of
// reaching replay, where importing it would panic.
func TestPayloadCodecPoisoned(t *testing.T) {
	c := PayloadCodec()
	good, err := c.EncodePayload(&headerPayload{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecodePayload(good); err != nil {
		t.Fatalf("empty payload: %v", err)
	}
	encode := func(w *wirePayload) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := map[string][]byte{
		"not gob": []byte("definitely not a gob stream"),
		"bad op": encode(&wirePayload{
			Nodes: []wireFNode{{Op: 250}},
			Ops:   []wireOp{{Cond: 0}},
		}),
		"negation without argument": encode(&wirePayload{
			Nodes: []wireFNode{{Op: uint8(cond.FNot)}},
			Ops:   []wireOp{{Cond: 0}},
		}),
		"forward formula arg": encode(&wirePayload{
			Nodes: []wireFNode{{Op: uint8(cond.FNot), Args: []int32{1}}, {Op: uint8(cond.FTrue)}},
		}),
		"cond index out of range": encode(&wirePayload{
			Ops: []wireOp{{Cond: 3}},
		}),
	}
	for name, data := range cases {
		if _, err := c.DecodePayload(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}
