package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/service"
)

// The serve phase's request shapes. The three kinds are sent in equal
// shares: their latencies form three separate modes, and with equal
// shares each transport's median falls inside the middle mode instead of
// on the edge between two.
const (
	serveBatch = 16
	serveTopM  = 10
	servePool  = 1024 // request indices drawn per model
)

// serveFixtures are the served models: one model of the workload's
// benchmark per paper device, each trained with its own constant seed.
var serveFixtures = []struct {
	device string
	seed   int64
}{{devsim.IntelI7, 101}, {devsim.NvidiaK40, 102}, {devsim.AMD7970, 103}}

type opKind uint8

const (
	opSingle opKind = iota
	opBatch
	opTopM
)

var opNames = [...]string{"predict", "batch", "topm_cached"}

// servedModel holds one served key's request pool and the in-process
// reference answers the responses are checked against.
type servedModel struct {
	key   service.ModelKey
	pool  []int64
	ref   map[int64]float64 // served-engine PredictIndices values
	top   []core.Predicted  // cold TopM of the served artifact
	views map[string]*core.Model
}

// serveSetup is the state the set-up builds.
type serveSetup struct {
	d        *daemon
	fixtures []fixture
}

func buildServe(benchmark string) (*serveSetup, error) {
	fixtures := make([]fixture, 0, len(serveFixtures))
	for _, f := range serveFixtures {
		fx, err := trainFixture(benchmark, f.device, f.seed)
		if err != nil {
			return nil, err
		}
		fixtures = append(fixtures, fx)
	}
	d, err := startDaemon(fixtures)
	if err != nil {
		return nil, err
	}
	return &serveSetup{d: d, fixtures: fixtures}, nil
}

// prepareModels draws the request pools from the run's seed and
// computes the reference answers on in-process twins of the served
// models.
func prepareModels(fixtures []fixture, seed int64) ([]*servedModel, error) {
	models := make([]*servedModel, 0, len(fixtures))
	for i, f := range fixtures {
		sm := &servedModel{key: f.key, ref: make(map[int64]float64), views: make(map[string]*core.Model)}
		for _, eng := range ann.EngineNames() {
			v, err := loadView(f.artifact, eng)
			if err != nil {
				return nil, err
			}
			sm.views[eng] = v
		}
		served := sm.views[servedEngine]
		rng := rand.New(rand.NewSource(deriveSeed(seed, 'P', uint64(i))))
		sm.pool = served.Space().SampleIndices(rng, servePool)
		vals := served.PredictIndices(sm.pool, served.NewBatchScratch(), nil)
		for k, idx := range sm.pool {
			sm.ref[idx] = vals[k]
		}
		sm.top = served.TopM(serveTopM)
		models = append(models, sm)
	}
	return models, nil
}

// serveOp is one request of the mix.
type serveOp struct {
	kind  opKind
	model *servedModel
	idxs  []int64
}

func nextOp(rng *rand.Rand, models []*servedModel) serveOp {
	op := serveOp{model: models[rng.Intn(len(models))]}
	switch op.kind = opKind(rng.Intn(3)); op.kind {
	case opSingle:
		op.idxs = []int64{op.model.pool[rng.Intn(servePool)]}
	case opBatch:
		op.idxs = make([]int64, serveBatch)
		for i := range op.idxs {
			op.idxs[i] = op.model.pool[rng.Intn(servePool)]
		}
	}
	return op
}

// answer is a response reduced to what the check compares, plus the raw
// HTTP body for the traced codec replay.
type answer struct {
	idxs []int64
	secs []float64
	body []byte
	resp any
}

func predictionsAnswer(ps []service.Prediction) answer {
	a := answer{idxs: make([]int64, len(ps)), secs: make([]float64, len(ps))}
	for i, p := range ps {
		a.idxs[i], a.secs[i] = p.Index, p.Seconds
	}
	return a
}

// batchBody is the POST /v1/predict request body.
type batchBody struct {
	Benchmark string  `json:"benchmark"`
	Device    string  `json:"device"`
	Indices   []int64 `json:"indices"`
}

func doHTTP(d *daemon, op serveOp) (answer, error) {
	key := op.model.key
	switch op.kind {
	case opSingle:
		var r service.PredictResponse
		body, err := d.getJSON("/v1/predict?"+query(key)+"&index="+strconv.FormatInt(op.idxs[0], 10), &r)
		a := predictionsAnswer([]service.Prediction{r.Prediction})
		a.body, a.resp = body, &r
		return a, err
	case opBatch:
		req, _ := json.Marshal(batchBody{Benchmark: key.Benchmark, Device: key.Device, Indices: op.idxs}) // plain struct
		var r service.PredictBatchResponse
		body, err := d.postJSON("/v1/predict", req, &r)
		a := predictionsAnswer(r.Predictions)
		a.body, a.resp = body, &r
		return a, err
	default:
		var r service.TopMResponse
		body, err := d.getJSON("/v1/topm?"+query(key)+"&m="+strconv.Itoa(serveTopM), &r)
		a := predictionsAnswer(r.Top)
		a.body, a.resp = body, &r
		return a, err
	}
}

func doRPC(d *daemon, op serveOp) (answer, error) {
	key := op.model.key
	switch op.kind {
	case opSingle:
		r, err := d.rpc.Predict(singleRequest(op))
		if err != nil {
			return answer{}, err
		}
		a := predictionsAnswer([]service.Prediction{r.Prediction})
		a.resp = r
		return a, nil
	case opBatch:
		r, err := d.rpc.PredictBatch(batchRequest(op))
		if err != nil {
			return answer{}, err
		}
		a := predictionsAnswer(r.Predictions)
		a.resp = r
		return a, nil
	default:
		r, err := d.rpc.TopM(&service.TopMRequest{Benchmark: key.Benchmark, Device: key.Device, M: serveTopM})
		if err != nil {
			return answer{}, err
		}
		a := predictionsAnswer(r.Top)
		a.resp = r
		return a, nil
	}
}

func singleRequest(op serveOp) *service.PredictRequest {
	return &service.PredictRequest{Benchmark: op.model.key.Benchmark, Device: op.model.key.Device,
		HasIndex: true, Index: op.idxs[0]}
}

func batchRequest(op serveOp) *service.PredictBatchRequest {
	return &service.PredictBatchRequest{Benchmark: op.model.key.Benchmark, Device: op.model.key.Device,
		Indices: op.idxs}
}

// check compares an answer with the in-process reference.
func check(op serveOp, a answer) error {
	if op.kind == opTopM {
		if len(a.idxs) != len(op.model.top) {
			return fmt.Errorf("%w: top-%d has %d entries", errMismatch, serveTopM, len(a.idxs))
		}
		for i, p := range op.model.top {
			if a.idxs[i] != p.Index || a.secs[i] != p.Seconds {
				return fmt.Errorf("%w: %s top[%d] = (%d, %g), want (%d, %g)",
					errMismatch, op.model.key, i, a.idxs[i], a.secs[i], p.Index, p.Seconds)
			}
		}
		return nil
	}
	if len(a.idxs) != len(op.idxs) {
		return fmt.Errorf("%w: %d predictions for %d indices", errMismatch, len(a.idxs), len(op.idxs))
	}
	for i, idx := range op.idxs {
		if a.idxs[i] != idx || a.secs[i] != op.model.ref[idx] {
			return fmt.Errorf("%w: %s index %d predicted %g, want %g",
				errMismatch, op.model.key, idx, a.secs[i], op.model.ref[idx])
		}
	}
	return nil
}

// serveSample is one completed request.
type serveSample struct {
	e2e  time.Duration
	kind opKind
	rpc  bool
}

// replayed holds a traced request's in-process replays: the API call,
// the codec work on the same bodies, and per-config forward and encode
// times.
type replayed struct {
	api, codec time.Duration
	forward    map[string]float64 // ns per config, by engine
	encode     float64            // ns per config
}

// clientResult is one closed-loop client's record of a phase.
type clientResult struct {
	// samples is filled in fixed-size chunks: a growing slice would copy
	// itself and leave garbage for the in-process daemon's collector,
	// moving peak memory with the request count.
	samples         [][]serveSample
	replays         []*replayed // traced phases: one per sample
	attempted, errs int
	topm, topmAPI   int
	firstErr        error
}

// runClient drives one closed loop for d, adding to res: each request
// is sent once the previous answer has been checked.
func runClient(dm *daemon, models []*servedModel, rpc bool, rng *rand.Rand, d time.Duration, tr *tracer, res *clientResult) {
	do, name := doHTTP, "client.http"
	if rpc {
		do, name = doRPC, "client.rpc"
	}
	start := time.Now()
	for time.Since(start) < d {
		op := nextOp(rng, models)
		req := tr.id()
		res.attempted++
		t0 := time.Now()
		a, err := do(dm, op)
		t1 := time.Now()
		if err == nil {
			err = check(op, a)
		}
		if err != nil {
			res.errs++
			if res.firstErr == nil {
				res.firstErr = err
			}
			continue
		}
		if op.kind == opTopM {
			res.topm++
		}
		s := serveSample{rpc: rpc, kind: op.kind, e2e: t1.Sub(t0)}
		if tr != nil {
			tr.record(name, req, req, t0, t1)
			rp := &replayed{}
			res.replays = append(res.replays, rp)
			if err := replay(dm, op, a, rpc, tr, req, rp); err != nil {
				res.errs++
				if res.firstErr == nil {
					res.firstErr = err
				}
			}
			if op.kind == opTopM {
				res.topmAPI++
			}
			tr.add("serve.request", req, 0, req, t0, time.Now())
		}
		if n := len(res.samples); n == 0 || len(res.samples[n-1]) == cap(res.samples[n-1]) {
			res.samples = append(res.samples, make([]serveSample, 0, 1<<14))
		}
		last := &res.samples[len(res.samples)-1]
		*last = append(*last, s)
	}
}

// replay re-runs a completed request layer by layer in-process, under
// spans that share the request's id.
func replay(dm *daemon, op serveOp, a answer, rpc bool, tr *tracer, req int64, s *replayed) error {
	key := op.model.key
	t0 := time.Now()
	var err error
	var resp any
	switch op.kind {
	case opSingle:
		resp, err = dm.srv.Predict(singleRequest(op))
	case opBatch:
		resp, err = dm.srv.PredictBatch(batchRequest(op))
	default:
		resp, err = dm.srv.TopM(&service.TopMRequest{Benchmark: key.Benchmark, Device: key.Device, M: serveTopM})
	}
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("in-process %s: %w", opNames[op.kind], err)
	}
	s.api = t1.Sub(t0)
	tr.record("service."+opNames[op.kind], req, req, t0, t1)

	t0 = time.Now()
	if rpc {
		err = rpcCodec(op, resp)
	} else {
		err = jsonCodec(op, a)
	}
	t1 = time.Now()
	if err != nil {
		return fmt.Errorf("codec replay: %w", err)
	}
	s.codec = t1.Sub(t0)
	codecName := "codec.json"
	if rpc {
		codecName = "codec.rpc"
	}
	tr.record(codecName, req, req, t0, t1)

	if op.kind == opTopM {
		return nil
	}
	s.forward = make(map[string]float64, len(op.model.views))
	for _, eng := range ann.EngineNames() {
		v := op.model.views[eng]
		scratch := v.NewBatchScratch()
		t0 = time.Now()
		v.PredictIndices(op.idxs, scratch, nil)
		t1 = time.Now()
		s.forward[eng] = float64(t1.Sub(t0)) / float64(len(op.idxs))
		tr.record("core.forward."+eng, req, req, t0, t1)
	}
	v := op.model.views[servedEngine]
	space, schema := v.Space(), v.Schema()
	buf := make([]float64, 0, schema.Dim())
	t0 = time.Now()
	for _, idx := range op.idxs {
		buf = schema.Encode(space.At(idx), nil, buf[:0])
	}
	t1 = time.Now()
	s.encode = float64(t1.Sub(t0)) / float64(len(op.idxs))
	tr.record("tuning.encode", req, req, t0, t1)
	return nil
}

// jsonCodec re-runs the JSON work of an HTTP request on the same bodies:
// the request body (batches), the response encode and its decode.
func jsonCodec(op serveOp, a answer) error {
	if op.kind == opBatch {
		key := op.model.key
		if _, err := json.Marshal(batchBody{Benchmark: key.Benchmark, Device: key.Device, Indices: op.idxs}); err != nil {
			return err
		}
	}
	if _, err := json.Marshal(a.resp); err != nil {
		return err
	}
	switch op.kind {
	case opSingle:
		return json.Unmarshal(a.body, new(service.PredictResponse))
	case opBatch:
		return json.Unmarshal(a.body, new(service.PredictBatchResponse))
	default:
		return json.Unmarshal(a.body, new(service.TopMResponse))
	}
}

// rpcCodec re-runs the RPC codec work of a request: request encode,
// response encode and response decode.
func rpcCodec(op serveOp, resp any) error {
	key := op.model.key
	var err error
	switch op.kind {
	case opSingle:
		if _, err = service.MarshalRPCPredictRequest(singleRequest(op)); err == nil {
			_, err = service.UnmarshalRPCPredictResponse(service.MarshalRPCPredictResponse(resp.(*service.PredictResponse)))
		}
	case opBatch:
		if _, err = service.MarshalRPCPredictBatchRequest(batchRequest(op)); err == nil {
			_, err = service.UnmarshalRPCPredictBatchResponse(service.MarshalRPCPredictBatchResponse(resp.(*service.PredictBatchResponse)))
		}
	default:
		if _, err = service.MarshalRPCTopMRequest(&service.TopMRequest{Benchmark: key.Benchmark, Device: key.Device, M: serveTopM}); err == nil {
			_, err = service.UnmarshalRPCTopMResponse(service.MarshalRPCTopMResponse(resp.(*service.TopMResponse)))
		}
	}
	return err
}

// serveSlice is the measuring time of one serve step; serve_rps is the
// median of the steps' rates.
const serveSlice = 200 * time.Millisecond

// tailWindow is how many requests of one transport each p99 window
// holds.
const tailWindow = 1000

// servePhase measures the serve phase in slices: each step runs both
// clients for serveSlice and checks the slice's counters.
type servePhase struct {
	dm      *daemon
	models  []*servedModel
	out     *outcome
	tr      *tracer
	rngs    [2]*rand.Rand
	clients [2]clientResult
	// rates holds each step's completed requests per second.
	rates []float64
	// delta sums the /v1/stats counter differences over the slices.
	delta counters
}

// newServePhase starts a phase whose clients draw their requests from
// seed: two phases with the same seed send the same requests.
func newServePhase(dm *daemon, models []*servedModel, seed int64, out *outcome, tr *tracer) *servePhase {
	p := &servePhase{dm: dm, models: models, out: out, tr: tr, delta: make(counters)}
	for c := range p.rngs {
		p.rngs[c] = rand.New(rand.NewSource(deriveSeed(seed, 'C', uint64(c))))
	}
	return p
}

func (p *servePhase) step() {
	before, err := p.dm.stats()
	if err != nil {
		p.out.failf("%v", err)
		return
	}
	topm, done := p.topmCount(), p.completed()
	var wg sync.WaitGroup
	start := time.Now()
	for c := range p.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			runClient(p.dm, p.models, c == 1, p.rngs[c], serveSlice, p.tr, &p.clients[c])
		}(c)
	}
	wg.Wait()
	p.rates = append(p.rates, float64(p.completed()-done)/time.Since(start).Seconds())
	after, err := p.dm.stats()
	if err != nil {
		p.out.failf("%v", err)
		return
	}
	for name := range after {
		p.delta[name] += after.diff(before, name)
	}
	// Path proof: every top-M was a cache hit, and nothing was loaded
	// or rebuilt while measuring.
	topm = p.topmCount() - topm
	if hits := after.diff(before, "mltuned_topm_cache_hits_total"); hits != float64(topm) {
		p.out.failf("serve: %v top-M cache hits for %d top-M requests", hits, topm)
	}
	if loads := after.diff(before, "mltuned_model_loads_total"); loads != 0 {
		p.out.failf("serve: %v model loads while measuring", loads)
	}
	if misses := after.diff(before, "mltuned_serve_cache_misses_total"); misses != 0 {
		p.out.failf("serve: %v serve-cache entry misses while measuring", misses)
	}
}

// topmCount is the number of top-M requests the phase has sent, over
// either transport or in-process.
func (p *servePhase) topmCount() int {
	n := 0
	for _, r := range p.clients {
		n += r.topm + r.topmAPI
	}
	return n
}

// completed is the number of requests the phase has completed.
func (p *servePhase) completed() int {
	n := 0
	for _, r := range p.clients {
		for _, chunk := range r.samples {
			n += len(chunk)
		}
	}
	return n
}

// phaseResult is what one serve phase recorded.
type phaseResult struct {
	samples []serveSample
	replays []*replayed // aligned with samples in a traced phase
	rates   []float64
	delta   counters
}

// finish adds the phase's operation counts to the outcome and returns
// its samples.
func (p *servePhase) finish() phaseResult {
	pr := phaseResult{rates: p.rates, delta: p.delta}
	for c, r := range p.clients {
		p.out.attempted += r.attempted
		p.out.failed += r.errs
		if r.firstErr != nil {
			p.out.failf("client %d: %d failed requests, first: %v", c, r.errs, r.firstErr)
		}
		pr.replays = append(pr.replays, r.replays...)
	}
	pr.samples = make([]serveSample, 0, p.completed())
	for _, r := range p.clients {
		for _, chunk := range r.samples {
			pr.samples = append(pr.samples, chunk...)
		}
	}
	return pr
}

// warmServe sends every request shape for every model over both
// transports once, so sweeps are cached and scratch pools filled before
// timing starts.
func warmServe(dm *daemon, models []*servedModel) error {
	for _, m := range models {
		for _, kind := range []opKind{opTopM, opSingle, opBatch} {
			op := serveOp{kind: kind, model: m, idxs: m.pool[:serveBatch]}
			if kind == opSingle {
				op.idxs = m.pool[:1]
			}
			for _, do := range []func(*daemon, serveOp) (answer, error){doHTTP, doRPC} {
				a, err := do(dm, op)
				if err == nil {
					err = check(op, a)
				}
				if err != nil {
					return fmt.Errorf("warm-up %s %s: %w", opNames[kind], m.key, err)
				}
			}
		}
	}
	return nil
}

// reportServe adds the serve phase's end-to-end metrics.
func reportServe(rep *report, pr phaseResult) {
	var httpMs, rpcMs []float64
	for _, s := range pr.samples {
		ms := float64(s.e2e) / 1e6
		if s.rpc {
			rpcMs = append(rpcMs, ms)
		} else {
			httpMs = append(httpMs, ms)
		}
	}
	rep.addQuantile("http_p50_ms", httpMs, 0.5, "ms")
	rep.addWindowedQuantile("http_p99_ms", httpMs, tailWindow, 0.99, "ms")
	rep.addQuantile("rpc_p50_ms", rpcMs, 0.5, "ms")
	rep.addWindowedQuantile("rpc_p99_ms", rpcMs, tailWindow, 0.99, "ms")
	rep.add("serve_rps", median(pr.rates), "req/s", len(pr.samples))
}

// reportServeLayers derives the serve phase's per-layer metrics from
// the traced phase.
func reportServeLayers(rep *report, untraced, traced phaseResult) {
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	var api [3][]float64
	var transport [2][]float64
	var codec [2][]float64
	forward := map[string][]float64{}
	var encode []float64
	// Per (transport, request kind): the four self times along each
	// request — transport minus the codec work it contains, codec, the
	// API minus its forward pass, the forward pass — and the request time.
	type group struct {
		rpc  bool
		kind opKind
	}
	byGroup := map[group][][5]float64{}
	for i, s := range traced.samples {
		r := traced.replays[i]
		t := 0
		if s.rpc {
			t = 1
		}
		api[s.kind] = append(api[s.kind], us(r.api))
		transport[t] = append(transport[t], us(s.e2e-r.api))
		codec[t] = append(codec[t], us(r.codec))
		fwd := 0.0
		if r.forward != nil {
			for eng, ns := range r.forward {
				forward[eng] = append(forward[eng], ns)
			}
			encode = append(encode, r.encode)
			n := 1.0
			if s.kind == opBatch {
				n = serveBatch
			}
			fwd = r.forward[servedEngine] * n / 1e3
		}
		g := group{s.rpc, s.kind}
		byGroup[g] = append(byGroup[g], [5]float64{us(s.e2e - r.api - r.codec), us(r.codec), us(r.api) - fwd, fwd, us(s.e2e)})
	}
	for k, name := range []string{"service.predict_us", "service.batch_us", "service.topm_cached_us"} {
		rep.addQuantile(name, api[k], 0.5, "us")
	}
	delta := traced.delta
	hits := delta["mltuned_serve_cache_hits_total"]
	misses := delta["mltuned_serve_cache_misses_total"]
	rep.add("service.cache_hit_frac", hits/(hits+misses), "ratio", int(hits+misses))
	thits := delta["mltuned_topm_cache_hits_total"]
	tmisses := delta["mltuned_topm_cache_misses_total"]
	rep.add("service.topm_cache_hit_frac", thits/(thits+tmisses), "ratio", int(thits+tmisses))
	rep.addQuantile("transport.http_us", transport[0], 0.5, "us")
	rep.addQuantile("transport.rpc_us", transport[1], 0.5, "us")
	rep.addQuantile("codec.json_us", codec[0], 0.5, "us")
	rep.addQuantile("codec.rpc_us", codec[1], 0.5, "us")
	for _, eng := range ann.EngineNames() {
		rep.addQuantile("core.forward_ns."+eng, forward[eng], 0.5, "ns")
	}
	rep.addQuantile("tuning.encode_ns", encode, 0.5, "ns")

	// Reconciliation: within each group, the medians of the four self
	// times against the group's median request; the groups are weighted
	// by their request counts. Overhead is the traced minus the untraced
	// median, averaged over the transports.
	var share float64
	for _, rows := range byGroup {
		var layers float64
		col := make([]float64, len(rows))
		for c := 0; c < 5; c++ {
			for r, row := range rows {
				col[r] = row[c]
			}
			if c < 4 {
				layers += median(col)
			} else {
				share += layers / median(col) * float64(len(rows)) / float64(len(traced.samples))
			}
		}
	}
	var overhead float64
	for _, rpc := range []bool{false, true} {
		var tr, un []float64
		for _, s := range traced.samples {
			if s.rpc == rpc {
				tr = append(tr, us(s.e2e))
			}
		}
		for _, s := range untraced.samples {
			if s.rpc == rpc {
				un = append(un, us(s.e2e))
			}
		}
		overhead += (median(tr) - median(un)) / 1e3 / 2
	}
	fmt.Printf("reconcile serve: transport+codec+api+forward self time medians cover %.1f%% of the median request (per transport and request kind); tracing overhead %.4fms (median over transports)\n",
		100*share, overhead)
	rep.add("recon.serve_share", share, "ratio", len(traced.samples))
	rep.add("trace.serve_overhead_ms", overhead, "ms", len(untraced.samples)+len(traced.samples))
}
