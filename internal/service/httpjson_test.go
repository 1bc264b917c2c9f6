package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"

	"repro/internal/ann"
	"repro/internal/devsim"
	"repro/internal/storage"
	"repro/internal/tuning"
)

// marshalBody is the body encoding/json writes for v:
// json.NewEncoder(w).Encode(v) without an indent.
func marshalBody(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHTTPBodiesMatchEncodingJSON pins the hand-appended predict,
// predict-batch and top-M bodies to encoding/json byte for byte. It
// serves a concrete and a portable model under the float64 and int16
// engines, resolved exactly, by catalog name and by an inline
// descriptor whose name needs escaping, and compares each ServeHTTP
// body with the compact encoding of the API response to the same
// request.
func TestHTTPBodiesMatchEncodingJSON(t *testing.T) {
	reg, err := NewRegistry(storage.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	exact := trainTinyModel(t, 21)
	if err := reg.Put(ModelKey{Benchmark: "convolution", Device: devsim.IntelI7}, exact); err != nil {
		t.Fatal(err)
	}
	if err := reg.Put(ModelKey{Benchmark: "convolution", Device: PortableDevice}, trainTinyPortable(t, 22)); err != nil {
		t.Fatal(err)
	}
	desc := testDescriptor()
	desc.Name = "GPU <\"x\"> & \\ \t\u2028\u2029 \u00e9"
	descJSON, err := json.Marshal(desc)
	if err != nil {
		t.Fatal(err)
	}
	models := []struct {
		name   string
		device string
		desc   *devsim.Descriptor
		query  string
	}{
		{"exact", devsim.IntelI7, nil, "&device=" + url.QueryEscape(devsim.IntelI7)},
		{"catalog", devsim.NvidiaK40, nil, "&device=" + url.QueryEscape(devsim.NvidiaK40)},
		{"descriptor", "", desc, "&descriptor=" + url.QueryEscape(string(descJSON))},
	}
	space := exact.Space()
	rng := rand.New(rand.NewSource(23))

	for _, engine := range []string{ann.EngineFloat64, ann.EngineInt16} {
		srv := newTestServer(t, reg, 1, 2, WithEngine(engine))
		serve := func(r *http.Request) []byte {
			t.Helper()
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, r)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", r.Method, r.URL, rec.Code, rec.Body)
			}
			return rec.Body.Bytes()
		}
		same := func(what string, got []byte, resp any, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if want := marshalBody(t, resp); !bytes.Equal(got, want) {
				t.Fatalf("%s:\n got %s\nwant %s", what, got, want)
			}
		}
		for _, mc := range models {
			what := engine + "/" + mc.name
			base := "benchmark=convolution" + mc.query
			for i := 0; i < 8; i++ {
				idx := rng.Int63n(space.Size())
				got := serve(httptest.NewRequest("GET", "/v1/predict?"+base+"&index="+strconv.FormatInt(idx, 10), nil))
				resp, err := srv.Predict(&PredictRequest{Benchmark: "convolution", Device: mc.device, Descriptor: mc.desc,
					HasIndex: true, Index: idx})
				same(what+" predict index", got, resp, err)

				cfg := space.At(rng.Int63n(space.Size())).Map()
				q := base
				for name, v := range cfg {
					q += "&c." + name + "=" + strconv.Itoa(v)
				}
				got = serve(httptest.NewRequest("GET", "/v1/predict?"+q, nil))
				resp, err = srv.Predict(&PredictRequest{Benchmark: "convolution", Device: mc.device, Descriptor: mc.desc, Config: cfg})
				same(what+" predict config", got, resp, err)
			}

			idxs := space.SampleIndices(rng, 16)
			cfgs := []map[string]int{space.At(idxs[0]).Map(), space.At(idxs[1]).Map()}
			for _, body := range []predictBatchBody{
				{Benchmark: "convolution", Device: mc.device, Descriptor: mc.desc, Indices: idxs},
				{Benchmark: "convolution", Device: mc.device, Descriptor: mc.desc, Configs: cfgs},
			} {
				got := serve(httptest.NewRequest("POST", "/v1/predict", bytes.NewReader(marshalBody(t, body))))
				resp, err := srv.PredictBatch(&PredictBatchRequest{Benchmark: body.Benchmark, Device: body.Device,
					Descriptor: body.Descriptor, Indices: body.Indices, Configs: body.Configs})
				same(what+" batch", got, resp, err)
			}

			for _, M := range []int{1, 2, 1 + rng.Intn(maxTopM), maxTopM} {
				got := serve(httptest.NewRequest("GET", "/v1/topm?"+base+"&m="+strconv.Itoa(M), nil))
				resp, err := srv.TopM(&TopMRequest{Benchmark: "convolution", Device: mc.device, Descriptor: mc.desc, M: M})
				same(what+" topm "+strconv.Itoa(M), got, resp, err)
			}
		}
	}
}

// TestWriteJSONUnencodableIsInternal pins the failure path of both
// renderers: a response holding a non-finite float has no JSON form, so
// it must answer 500 with the internal error envelope, never a 200 with
// an empty or partial body.
func TestWriteJSONUnencodableIsInternal(t *testing.T) {
	for name, v := range map[string]any{
		"appender": &PredictResponse{Benchmark: "b", Device: "d", Resolution: resolutionExact,
			Prediction: Prediction{Index: 1, Config: map[string]int{"x": 1}, Seconds: math.NaN()}},
		"appender-batch": &PredictBatchResponse{Predictions: []Prediction{{Seconds: 1}, {Seconds: math.Inf(-1)}}},
		"encoding/json":  struct{ Seconds float64 }{math.NaN()},
	} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		var e Error
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Fatalf("%s: body %q: %v", name, rec.Body, err)
		}
		if rec.Code != http.StatusInternalServerError || e.Kind != errKindInternal {
			t.Errorf("%s: status %d kind %q (%s), want 500 %s", name, rec.Code, e.Kind, e.Message, errKindInternal)
		}
	}
}

// FuzzPredictJSON checks the read-path appenders against json.Marshal
// over arbitrary strings (device, benchmark, resolution and config
// keys, valid UTF-8 or not), config values, indices and float bit
// patterns, non-finite ones included: the bytes must be equal, and
// where Marshal fails the appender must fail with the same message.
// Config maps are rendered both through a space's pre-rendered keys
// and through the sorting fallback, including maps whose keys differ
// from the space's.
func FuzzPredictJSON(f *testing.F) {
	f.Add("Intel i7 3770", "convolution", "exact", "wg_x", "use_local", int64(8), int64(1), int64(7), math.Float64bits(0.00125), 10)
	f.Add("<gpu> & \"x\"", "b\\c", "portable", "\u2028", "\u2029", int64(-1), int64(math.MaxInt64), int64(math.MinInt64), math.Float64bits(1e-7), 1)
	f.Add("\xff\xfe", "\x00\x1f\x7f", "\t\n\r\b\f", "a", "a", int64(0), int64(0), int64(0), math.Float64bits(1e21), 0)
	f.Add("\u00e9\u20ac\U0001d11e", "", "", "", "z", int64(3), int64(-3), int64(1), math.Float64bits(math.NaN()), -5)
	f.Add("d", "b", "r", "k1", "k2", int64(1), int64(2), int64(3), math.Float64bits(math.Inf(1)), 10000)
	f.Add("d", "b", "r", "k1", "k2", int64(1), int64(2), int64(3), math.Float64bits(math.Copysign(0, -1)), 3)
	f.Add("d", "b", "r", "k1", "k2", int64(1), int64(2), int64(3), math.Float64bits(-9.999999e-7), 3)
	f.Add("d", "b", "r", "k1", "k2", int64(1), int64(2), int64(3), uint64(1), 3)
	f.Add("d", "b", "r", "k1", "k2", int64(1), int64(2), int64(3), math.Float64bits(123456789.125), 3)
	f.Fuzz(func(t *testing.T, device, benchmark, resolution, key1, key2 string, v1, v2, index int64, bits uint64, m int) {
		secs := math.Float64frombits(bits)
		params := []tuning.Param{{Name: key1, Values: []int{0}}}
		if key2 != key1 {
			params = append(params, tuning.Param{Name: key2, Values: []int{0}})
		}
		keys := newConfigKeys(tuning.NewSpace("fuzz", params...))
		cfg := map[string]int{key1: int(v1), key2: int(v2)}
		other := map[string]int{key1: int(v2), key2 + "\x00": int(v1)}
		preds := []Prediction{
			{Index: index, Config: cfg, Seconds: secs},
			{Index: -index, Config: other, Seconds: secs / 3},
			{Index: v1, Config: nil, Seconds: float64(v2)},
			{Index: v2, Config: map[string]int{}, Seconds: -secs},
		}
		for _, k := range []*configKeys{keys, nil} {
			for _, v := range []jsonAppender{
				&PredictResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Prediction: preds[0], keys: k},
				&PredictResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Prediction: preds[1], keys: k},
				&PredictBatchResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Predictions: preds, keys: k},
				&PredictBatchResponse{Benchmark: benchmark, Device: device, Resolution: resolution, keys: k},
				&TopMResponse{Benchmark: benchmark, Device: device, Resolution: resolution, M: m, Top: preds[:m&3], keys: k},
				&TopMResponse{Benchmark: benchmark, Device: device, Resolution: resolution, M: m, Top: []Prediction{}, keys: k},
			} {
				want, werr := json.Marshal(v)
				got, gerr := v.appendJSON(nil)
				switch {
				case werr != nil || gerr != nil:
					if werr == nil || gerr == nil || werr.Error() != gerr.Error() {
						t.Fatalf("%T: appender error %v, encoding/json error %v", v, gerr, werr)
					}
				case !bytes.Equal(got, want):
					t.Fatalf("%T:\n got %s\nwant %s", v, got, want)
				}
			}
		}
	})
}
