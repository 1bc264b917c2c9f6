package service

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"repro/internal/devsim"
)

// --- framing ----------------------------------------------------------

func TestRPCFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := [][]byte{{}, {0x01}, bytes.Repeat([]byte{0xAB}, 1000)}
	for _, body := range bodies {
		if err := WriteRPCFrame(&buf, body); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for i, want := range bodies {
		got, err := ReadRPCFrame(&buf, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0]
	}
	// Clean stream end is io.EOF; a truncated body is ErrUnexpectedEOF.
	if _, err := ReadRPCFrame(&buf, nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	short := []byte{10, 0, 0, 0, 'h', 'i'} // claims 10 body bytes, has 2
	if _, err := ReadRPCFrame(bytes.NewReader(short), nil); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated body: %v, want io.ErrUnexpectedEOF", err)
	}
	huge := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadRPCFrame(bytes.NewReader(huge), nil); err == nil {
		t.Error("oversized frame header accepted")
	}
	if err := WriteRPCFrame(io.Discard, make([]byte, maxRPCFrameBytes+1)); err == nil {
		t.Error("oversized frame body written")
	}
}

// --- request round trips ----------------------------------------------

// reqReader wraps a marshaled request body in the decode cursor the
// server hands to unmarshalRPC*Request, asserting the op byte.
func reqReader(t *testing.T, body []byte, want RPCOp) *wireReader {
	t.Helper()
	r := &wireReader{b: body}
	if op := RPCOp(r.u8()); op != want {
		t.Fatalf("op byte %d, want %d", op, want)
	}
	return r
}

func testDescriptor() *devsim.Descriptor {
	d := devsim.MustLookup(devsim.IntelI7).Descriptor()
	return &d
}

func TestRPCPredictRequestRoundTrip(t *testing.T) {
	for _, req := range []*PredictRequest{
		{Benchmark: "convolution", Device: devsim.IntelI7, HasIndex: true, Index: 1234},
		{Benchmark: "sgemm", Device: "", Descriptor: testDescriptor(),
			Config: map[string]int{"TILE": 16, "WPT": 4}},
		{Benchmark: "stencil", Device: "x", Config: map[string]int{"U": -3}},
	} {
		body, err := MarshalRPCPredictRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unmarshalRPCPredictRequest(reqReader(t, body, RPCOpPredict))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestRPCPredictBatchRequestRoundTrip(t *testing.T) {
	for _, req := range []*PredictBatchRequest{
		{Benchmark: "convolution", Device: devsim.IntelI7, Indices: []int64{0, 7, 99}},
		{Benchmark: "sgemm", Device: "d", Configs: []map[string]int{
			{"TILE": 8}, {"TILE": 32, "WPT": 2},
		}},
		{Benchmark: "b", Descriptor: testDescriptor(), Indices: []int64{}},
	} {
		body, err := MarshalRPCPredictBatchRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := unmarshalRPCPredictBatchRequest(reqReader(t, body, RPCOpPredictBatch))
		if err != nil {
			t.Fatal(err)
		}
		// Empty and nil slices are the same wire shape; normalise.
		if len(req.Indices) == 0 {
			req.Indices, got.Indices = nil, nil
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("round trip\n got %+v\nwant %+v", got, req)
		}
	}
}

func TestRPCTopMRequestRoundTrip(t *testing.T) {
	req := &TopMRequest{Benchmark: "convolution", Device: devsim.IntelI7, M: 25}
	body, err := MarshalRPCTopMRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalRPCTopMRequest(reqReader(t, body, RPCOpTopM))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip %+v, want %+v", got, req)
	}
}

func TestRPCModelsRequestRoundTrip(t *testing.T) {
	req := &ModelsRequest{Since: 42, Benchmark: "convolution", Shard: "1/4"}
	body, err := MarshalRPCModelsRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := unmarshalRPCModelsRequest(reqReader(t, body, RPCOpModels))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, req) {
		t.Errorf("round trip %+v, want %+v", got, req)
	}
}

// --- response round trips ---------------------------------------------

func TestRPCResponseRoundTrips(t *testing.T) {
	pr := &PredictResponse{Benchmark: "convolution", Device: devsim.IntelI7,
		Resolution: resolutionExact,
		Prediction: Prediction{Index: 9, Seconds: 0.00125}}
	gotPR, err := UnmarshalRPCPredictResponse(MarshalRPCPredictResponse(pr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPR, pr) {
		t.Errorf("predict\n got %+v\nwant %+v", gotPR, pr)
	}

	br := &PredictBatchResponse{Benchmark: "b", Device: "d", Resolution: resolutionPortable,
		Predictions: []Prediction{{Index: 1, Seconds: 2.5}, {Index: -1, Seconds: 0}}}
	gotBR, err := UnmarshalRPCPredictBatchResponse(MarshalRPCPredictBatchResponse(br))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBR, br) {
		t.Errorf("batch\n got %+v\nwant %+v", gotBR, br)
	}

	tr := &TopMResponse{Benchmark: "b", Device: "d", Resolution: resolutionExact, M: 3,
		Top: []Prediction{{Index: 4, Seconds: 1e-6}}}
	gotTR, err := UnmarshalRPCTopMResponse(MarshalRPCTopMResponse(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotTR, tr) {
		t.Errorf("topm\n got %+v\nwant %+v", gotTR, tr)
	}

	mr := &ModelsResponse{Role: RoleAll, Engine: "int16", Generation: 17,
		Models: []ModelInfo{
			{Benchmark: "convolution", Device: devsim.IntelI7, File: "convolution@Intel+i7+3770.mlt",
				Bytes: 4096, Generation: 9},
			{Benchmark: "sgemm", Device: PortableDevice, Portable: true, File: "f", Bytes: 1, Generation: 17},
		}}
	gotMR, err := UnmarshalRPCModelsResponse(MarshalRPCModelsResponse(mr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMR, mr) {
		t.Errorf("models\n got %+v\nwant %+v", gotMR, mr)
	}
}

func TestRPCErrorRoundTrip(t *testing.T) {
	for _, e := range []*Error{
		errf(errKindInvalid, "bad request"),
		errf(errKindNotFound, "no model"),
		errf(errKindOverloaded, "shed"), // retryable with hint
		{Kind: errKindNotOwner, Message: "shard 0/2 does not own x@y; shard 1 does",
			Owner: &OwnerRef{Shard: 1, Addr: "127.0.0.1:8080", RPCAddr: "127.0.0.1:9090"}},
	} {
		body := MarshalRPCError(e)
		_, err := UnmarshalRPCPredictResponse(body)
		var got *Error
		if !errors.As(err, &got) {
			t.Fatalf("%s: error frame decoded to %v, want *Error", e.Kind, err)
		}
		if !reflect.DeepEqual(got, e) {
			t.Errorf("round trip\n got %+v\nwant %+v", got, e)
		}
	}
	// An unknown kind degrades to internal rather than an invalid frame.
	var got *Error
	if _, err := UnmarshalRPCTopMResponse(MarshalRPCError(&Error{Kind: "martian", Message: "m"})); !errors.As(err, &got) {
		t.Fatalf("unknown kind: %v", err)
	} else if got.Kind != errKindInternal {
		t.Errorf("unknown kind mapped to %q, want %q", got.Kind, errKindInternal)
	}
}

// --- corrupt input -----------------------------------------------------

// TestRPCCodecRejectsCorruptInput truncates and bit-flips valid messages
// at every position: decoders must return errors, never panic, and never
// accept trailing garbage.
func TestRPCCodecRejectsCorruptInput(t *testing.T) {
	preq, err := MarshalRPCPredictRequest(&PredictRequest{
		Benchmark: "convolution", Device: devsim.IntelI7,
		Config: map[string]int{"TILE": 16}})
	if err != nil {
		t.Fatal(err)
	}
	breq, err := MarshalRPCPredictBatchRequest(&PredictBatchRequest{
		Benchmark: "b", Device: "d", Indices: []int64{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	decoders := map[string]func([]byte) error{
		"predict_req": func(b []byte) error {
			r := &wireReader{b: b}
			r.u8()
			_, err := unmarshalRPCPredictRequest(r)
			return err
		},
		"batch_req": func(b []byte) error {
			r := &wireReader{b: b}
			r.u8()
			_, err := unmarshalRPCPredictBatchRequest(r)
			return err
		},
		"predict_resp": func(b []byte) error {
			_, err := UnmarshalRPCPredictResponse(b)
			return err
		},
		"models_resp": func(b []byte) error {
			_, err := UnmarshalRPCModelsResponse(b)
			return err
		},
	}
	seeds := map[string][]byte{
		"predict_req": preq,
		"batch_req":   breq,
		"predict_resp": MarshalRPCPredictResponse(&PredictResponse{
			Benchmark: "b", Device: "d", Resolution: "exact",
			Prediction: Prediction{Index: 1, Seconds: 2}}),
		"models_resp": MarshalRPCModelsResponse(&ModelsResponse{
			Role: RoleServe, Engine: "float64", Generation: 3,
			Models: []ModelInfo{{Benchmark: "b", Device: "d", File: "f"}}}),
	}
	for name, decode := range decoders {
		valid := seeds[name]
		if err := decode(valid); err != nil {
			t.Fatalf("%s: valid message rejected: %v", name, err)
		}
		// Every truncation must error (prefixes are never complete).
		for n := 0; n < len(valid); n++ {
			if err := decode(valid[:n]); err == nil {
				t.Errorf("%s: accepted truncation at %d", name, n)
			}
		}
		// Trailing bytes are a protocol error.
		if err := decode(append(append([]byte{}, valid...), 0x00)); err == nil {
			t.Errorf("%s: accepted trailing byte", name)
		}
		// Bit flips must never panic (decoded garbage may legally parse).
		for i := range valid {
			mut := append([]byte{}, valid...)
			mut[i] ^= 0xFF
			decode(mut) // must not panic
		}
	}
	// A hostile batch count cannot drive allocation past the frame size.
	w := &wireWriter{}
	w.u8(uint8(RPCOpPredictBatch))
	w.str("b")
	w.str("d")
	w.str("")
	w.u8(rpcAddrIndex)
	w.u32(1 << 31)
	r := &wireReader{b: w.b}
	r.u8()
	if _, err := unmarshalRPCPredictBatchRequest(r); err == nil {
		t.Error("hostile batch count accepted")
	}
}

// FuzzRPCWire drives every decoder over one corpus: the committed seeds
// are valid frames of each message type plus truncated and corrupt
// variants, mirroring FuzzModelV3Codec. The decoders must never panic
// and valid re-encodes of what they decode must round-trip.
func FuzzRPCWire(f *testing.F) {
	preq, _ := MarshalRPCPredictRequest(&PredictRequest{
		Benchmark: "convolution", Device: devsim.IntelI7, HasIndex: true, Index: 5})
	creq, _ := MarshalRPCPredictRequest(&PredictRequest{
		Benchmark: "sgemm", Descriptor: testDescriptor(), Config: map[string]int{"TILE": 16}})
	breq, _ := MarshalRPCPredictBatchRequest(&PredictBatchRequest{
		Benchmark: "b", Device: "d", Indices: []int64{1, 2}})
	treq, _ := MarshalRPCTopMRequest(&TopMRequest{Benchmark: "b", Device: "d", M: 10})
	mreq, _ := MarshalRPCModelsRequest(&ModelsRequest{Since: 7, Shard: "0/2"})
	seeds := [][]byte{
		preq, creq, breq, treq, mreq,
		MarshalRPCPredictResponse(&PredictResponse{Benchmark: "b", Device: "d",
			Resolution: "exact", Prediction: Prediction{Index: 3, Seconds: 0.5}}),
		MarshalRPCPredictBatchResponse(&PredictBatchResponse{Benchmark: "b", Device: "d",
			Resolution: "portable", Predictions: []Prediction{{Index: 1, Seconds: 2}}}),
		MarshalRPCTopMResponse(&TopMResponse{Benchmark: "b", Device: "d", M: 1,
			Top: []Prediction{{Index: 0, Seconds: 1}}}),
		MarshalRPCModelsResponse(&ModelsResponse{Role: RoleAll, Engine: "int16", Generation: 2,
			Models: []ModelInfo{{Benchmark: "b", Device: "d", File: "f", Bytes: 10, Generation: 2}}}),
		MarshalRPCError(errf(errKindOverloaded, "shed")),
		MarshalRPCError(&Error{Kind: errKindNotOwner, Message: "m",
			Owner: &OwnerRef{Shard: 3, Addr: "a", RPCAddr: "r"}}),
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > 2 {
			f.Add(s[:len(s)/2]) // truncated
			corrupt := append([]byte{}, s...)
			corrupt[1] ^= 0xFF
			f.Add(corrupt) // bit-flipped
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Request decoders (op byte routed like handleRPCFrame).
		r := &wireReader{b: data}
		switch RPCOp(r.u8()) {
		case RPCOpPredict:
			if req, err := unmarshalRPCPredictRequest(r); err == nil {
				if _, err := MarshalRPCPredictRequest(req); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
		case RPCOpPredictBatch:
			if req, err := unmarshalRPCPredictBatchRequest(r); err == nil {
				if _, err := MarshalRPCPredictBatchRequest(req); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
		case RPCOpTopM:
			if req, err := unmarshalRPCTopMRequest(r); err == nil {
				if _, err := MarshalRPCTopMRequest(req); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
		case RPCOpModels:
			if req, err := unmarshalRPCModelsRequest(r); err == nil {
				if _, err := MarshalRPCModelsRequest(req); err != nil {
					t.Fatalf("re-encode: %v", err)
				}
			}
		}
		// Response decoders must tolerate the same bytes.
		UnmarshalRPCPredictResponse(data)
		UnmarshalRPCPredictBatchResponse(data)
		UnmarshalRPCTopMResponse(data)
		UnmarshalRPCModelsResponse(data)
	})
}
