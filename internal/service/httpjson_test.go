package service

import (
	"bytes"
	"encoding/json"
	"fmt"
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

// mirrorPrediction is a prediction as HTTP bodies carry it, with the
// configuration's parameter map next to the index.
type mirrorPrediction struct {
	Index   int64          `json:"index"`
	Config  map[string]int `json:"config"`
	Seconds float64        `json:"seconds"`
}

// mirrorPredictions pairs each prediction with space.At(index).Map(),
// or a nil map when space is nil (a response without config keys).
func mirrorPredictions(space *tuning.Space, ps []Prediction) []mirrorPrediction {
	if ps == nil {
		return nil
	}
	out := make([]mirrorPrediction, len(ps))
	for i, p := range ps {
		out[i] = mirrorPrediction{Index: p.Index, Seconds: p.Seconds}
		if space != nil {
			out[i].Config = space.At(p.Index).Map()
		}
	}
	return out
}

// mirror is the oracle for the appended read-path bodies: a struct of
// the same fields whose configs are built by space.At(index).Map()
// rather than from the responses' rendered keys, for encoding/json to
// encode.
func mirror(space *tuning.Space, v any) any {
	type model struct {
		Benchmark  string `json:"benchmark"`
		Device     string `json:"device"`
		Resolution string `json:"resolution"`
	}
	switch r := v.(type) {
	case *PredictResponse:
		return struct {
			model
			mirrorPrediction
		}{model{r.Benchmark, r.Device, r.Resolution}, mirrorPredictions(space, []Prediction{r.Prediction})[0]}
	case *PredictBatchResponse:
		return struct {
			model
			Predictions []mirrorPrediction `json:"predictions"`
		}{model{r.Benchmark, r.Device, r.Resolution}, mirrorPredictions(space, r.Predictions)}
	case *TopMResponse:
		return struct {
			model
			M   int                `json:"m"`
			Top []mirrorPrediction `json:"top"`
		}{model{r.Benchmark, r.Device, r.Resolution}, r.M, mirrorPredictions(space, r.Top)}
	}
	panic(fmt.Sprintf("no mirror for %T", v))
}

// TestHTTPBodiesMatchEncodingJSON pins the hand-appended predict,
// predict-batch and top-M bodies to encoding/json byte for byte. It
// serves a concrete and a portable model under the float64 and int16
// engines, resolved exactly, by catalog name and by an inline
// descriptor whose name needs escaping, and compares each ServeHTTP
// body with the compact encoding of the API response to the same
// request, its configs built by space.At(index).Map() (mirror).
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
			if want := marshalBody(t, mirror(space, resp)); !bytes.Equal(got, want) {
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
			Prediction: Prediction{Index: 1, Seconds: math.NaN()}},
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
// over arbitrary strings (device, benchmark, resolution and parameter
// names, valid UTF-8 or not), parameter values, indices and float bit
// patterns, non-finite ones included: the bytes must equal those of the
// mirror oracle, whose configs are space.At(index).Map() of a space
// built from the fuzzed names and values, and where Marshal fails the
// appender must fail with the same message. The spaces have one or two
// parameters, and one has 18, more than appendConfig decodes on the
// stack; responses without config keys render config as null.
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
		params := []tuning.Param{{Name: key1, Values: []int{int(v1), int(v2)}}}
		if key2 != key1 {
			params = append(params, tuning.Param{Name: key2, Values: []int{int(v2), int(index), int(v1)}})
		}
		wide := make([]tuning.Param, 18)
		for i := range wide {
			wide[i] = tuning.Param{Name: key1 + strconv.Itoa(i), Values: []int{int(v1 + int64(i)), int(v2)}}
		}
		for _, space := range []*tuning.Space{tuning.NewSpace("fuzz", params...), tuning.NewSpace("wide", wide...), nil} {
			keys, size := (*configKeys)(nil), int64(1<<62)
			if space != nil {
				keys, size = newConfigKeys(space), space.Size()
			}
			at := func(i int64) int64 { return (i%size + size) % size }
			preds := []Prediction{
				{Index: at(index), Seconds: secs},
				{Index: at(^index), Seconds: secs / 3},
				{Index: at(v1), Seconds: float64(v2)},
				{Index: at(v2), Seconds: -secs},
			}
			for _, v := range []jsonAppender{
				&PredictResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Prediction: preds[0], keys: keys},
				&PredictResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Prediction: preds[1], keys: keys},
				&PredictBatchResponse{Benchmark: benchmark, Device: device, Resolution: resolution, Predictions: preds, keys: keys},
				&PredictBatchResponse{Benchmark: benchmark, Device: device, Resolution: resolution, keys: keys},
				&TopMResponse{Benchmark: benchmark, Device: device, Resolution: resolution, M: m, Top: preds[:m&3], keys: keys},
				&TopMResponse{Benchmark: benchmark, Device: device, Resolution: resolution, M: m, Top: []Prediction{}, keys: keys},
			} {
				want, werr := json.Marshal(mirror(space, v))
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
