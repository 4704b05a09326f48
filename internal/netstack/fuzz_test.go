package netstack

import (
	"bytes"
	"testing"
)

// FuzzDecodeRequest asserts the request decoder is total — no panic on
// any input — and that accepted frames satisfy the protocol invariants
// and survive a re-encode round trip.
func FuzzDecodeRequest(f *testing.F) {
	// Well-formed seeds from the encoder.
	for _, req := range []Request{
		{Op: OpGet, ReqID: 1, Key: []byte("user00000001")},
		{Op: OpSet, ReqID: 2, Key: []byte("k"), Value: bytes.Repeat([]byte{0xAB}, MaxValue)},
		{Op: OpScan, ReqID: 3, Key: []byte("user00000002"), ScanCount: 25},
	} {
		frame, err := EncodeRequest(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
	}
	// Malformed seeds: truncated, zero key, lying lengths, unknown op.
	f.Add([]byte{})
	f.Add([]byte{OpSet})
	f.Add([]byte{OpGet, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{OpSet, 5, 0xFF, 0xFF, 0, 0, 0, 0, 'a', 'b', 'c', 'd', 'e'})
	f.Add([]byte{99, 1, 0, 0, 0, 0, 0, 0, 'k'})

	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := DecodeRequestInPlace(b)
		if err != nil {
			return
		}
		// Accepted frames obey the protocol bounds.
		if req.Op != OpGet && req.Op != OpSet && req.Op != OpScan {
			t.Fatalf("decoder accepted unknown op %d", req.Op)
		}
		if len(req.Key) == 0 || len(req.Key) > MaxKey {
			t.Fatalf("decoder accepted key length %d", len(req.Key))
		}
		if len(req.Value) > MaxValue {
			t.Fatalf("decoder accepted value length %d", len(req.Value))
		}
		if req.ScanCount < 0 || req.ScanCount > MaxValue {
			t.Fatalf("decoder accepted scan count %d", req.ScanCount)
		}
		// Re-encode + re-decode is the identity on the decoded view.
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encode of accepted request failed: %v", err)
		}
		again, err := DecodeRequestInPlace(frame)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Op != req.Op || again.ReqID != req.ReqID ||
			!bytes.Equal(again.Key, req.Key) || !bytes.Equal(again.Value, req.Value) ||
			again.ScanCount != req.ScanCount {
			t.Fatalf("round trip diverged: %+v vs %+v", again, req)
		}
	})
}

// FuzzDecodeResponse asserts the response decoder is total and that
// accepted frames round-trip through the encoder.
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(Response{Status: StatusOK, ReqID: 42, Value: []byte("payload")}))
	f.Add(EncodeResponse(Response{Status: StatusNotFound, ReqID: 7}))
	f.Add([]byte{})
	f.Add([]byte{1, 2})
	f.Add([]byte{0, 0, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		resp, err := DecodeResponse(b)
		if err != nil {
			return
		}
		if HeaderBytes+len(resp.Value) > len(b) {
			t.Fatalf("decoder read %d value bytes from a %d-byte frame", len(resp.Value), len(b))
		}
		again, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Status != resp.Status || again.ReqID != resp.ReqID ||
			!bytes.Equal(again.Value, resp.Value) {
			t.Fatalf("round trip diverged: %+v vs %+v", again, resp)
		}
	})
}
