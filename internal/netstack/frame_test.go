package netstack

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Op: OpGet, ReqID: 7, Key: []byte("user000001")},
		{Op: OpSet, ReqID: 8, Key: []byte("k"), Value: bytes.Repeat([]byte{0xAB}, 100)},
		{Op: OpScan, ReqID: 9, Key: []byte("user000002"), ScanCount: 25},
	} {
		frame, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		got, err := DecodeRequestInPlace(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != req.Op || got.ReqID != req.ReqID || !bytes.Equal(got.Key, req.Key) {
			t.Fatalf("round trip = %+v, want %+v", got, req)
		}
		switch req.Op {
		case OpSet:
			if !bytes.Equal(got.Value, req.Value) {
				t.Fatalf("value lost")
			}
		case OpScan:
			if got.ScanCount != req.ScanCount {
				t.Fatalf("scan count = %d", got.ScanCount)
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{Status: StatusOK, ReqID: 42, Value: []byte("payload")}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != resp.Status || got.ReqID != resp.ReqID || !bytes.Equal(got.Value, resp.Value) {
		t.Fatalf("round trip = %+v", got)
	}
}

func TestEncodeRequestValidation(t *testing.T) {
	if _, err := EncodeRequest(Request{Op: OpGet, Key: nil}); err == nil {
		t.Fatalf("empty key accepted")
	}
	if _, err := EncodeRequest(Request{Op: OpGet, Key: bytes.Repeat([]byte{'k'}, MaxKey+1)}); err == nil {
		t.Fatalf("oversized key accepted")
	}
	if _, err := EncodeRequest(Request{Op: OpSet, Key: []byte("k"),
		Value: bytes.Repeat([]byte{1}, MaxValue+1)}); err == nil {
		t.Fatalf("oversized value accepted")
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := DecodeResponse([]byte{1, 2}); err == nil {
		t.Fatalf("short response accepted")
	}
	if _, err := DecodeResponse([]byte{0, 0, 0xFF, 0xFF, 0, 0, 0, 0}); err == nil {
		t.Fatalf("overlong value length accepted")
	}
	if _, err := DecodeRequestInPlace([]byte{1}); err == nil {
		t.Fatalf("short request accepted")
	}
	if _, err := DecodeRequestInPlace([]byte{OpGet, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatalf("zero key length accepted")
	}
}

func TestQuickRequestRoundTrip(t *testing.T) {
	f := func(id uint32, key, val []byte) bool {
		if len(key) == 0 {
			key = []byte("k")
		}
		if len(key) > MaxKey {
			key = key[:MaxKey]
		}
		if len(val) > MaxValue {
			val = val[:MaxValue]
		}
		frame, err := EncodeRequest(Request{Op: OpSet, ReqID: id, Key: key, Value: val})
		if err != nil {
			return false
		}
		got, err := DecodeRequestInPlace(frame)
		return err == nil && got.ReqID == id &&
			bytes.Equal(got.Key, key) && bytes.Equal(got.Value, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestDecodeRequestInPlaceViews: the in-place decoder's key and value are
// the frame's own bytes, each clipped so that an append cannot run on into
// what follows it.
func TestDecodeRequestInPlaceViews(t *testing.T) {
	frame, err := EncodeRequest(Request{Op: OpSet, ReqID: 9, Key: []byte("key"), Value: []byte("value")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequestInPlace(frame)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Key[0] != &frame[HeaderBytes] || &got.Value[0] != &frame[HeaderBytes+3] {
		t.Fatal("key or value is a copy, not a view of the frame")
	}
	_ = append(got.Key, 'X')
	_ = append(got.Value, 'X')
	if string(frame[HeaderBytes:]) != "keyvalue" {
		t.Fatalf("appending to a view wrote into the frame: %q", frame[HeaderBytes:])
	}
}
