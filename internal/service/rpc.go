package service

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"time"

	"repro/internal/telemetry"
)

// The RPC plane: a second adapter over the same API methods the HTTP
// mux calls, serving the hot read path (predict, predict-batch, top-M,
// models-delta) over the binary frames of rpcwire.go on a dedicated
// listener (-rpc-addr). One goroutine per connection reads request
// frames in order and answers each with exactly one response frame;
// clients may pipeline. The -max-inflight semaphore and the shed
// accounting span both transports, so the read path's concurrency bound
// holds fleet-wide, not per protocol.

// rpcMethodNames label the per-method telemetry series.
var rpcMethodNames = map[RPCOp]string{
	RPCOpPredict:      "predict",
	RPCOpPredictBatch: "predict_batch",
	RPCOpTopM:         "topm",
	RPCOpModels:       "models",
}

// rpcMetrics instruments the RPC plane, mirroring the HTTP middleware:
// request counters, latency histograms, and response status counters
// per method, plus a live-connection gauge. The families register only
// when ServeRPC is first called, so an HTTP-only daemon's exposition is
// unchanged.
type rpcMetrics struct {
	connections *telemetry.Gauge
	responses   *telemetry.CounterVec
	methods     map[RPCOp]*rpcMethodMetrics
}

// rpcMethodMetrics is the pre-resolved handle set of one method — the
// hot path touches these without label lookups; only error responses
// resolve their status label lazily.
type rpcMethodMetrics struct {
	requests *telemetry.Counter
	latency  *telemetry.Histogram
	ok       *telemetry.Counter
	shed     *telemetry.Counter
	errors   *telemetry.CounterVec
}

func newRPCMetrics(reg *telemetry.Registry) *rpcMetrics {
	m := &rpcMetrics{
		connections: reg.Gauge("mltuned_rpc_connections",
			"RPC connections currently open."),
	}
	requests := reg.CounterVec("mltuned_rpc_requests_total",
		"RPC requests handled, by method.", "method")
	latency := reg.HistogramVec("mltuned_rpc_request_duration_seconds",
		"RPC request latency by method, shed requests included.", "method")
	m.responses = reg.CounterVec("mltuned_rpc_responses_total",
		"RPC responses, by method and status (ok or the error kind).", "method", "status")
	shed := reg.CounterVec("mltuned_rpc_shed_total",
		"RPC read requests shed with kind overloaded because -max-inflight was saturated.", "method")
	m.methods = make(map[RPCOp]*rpcMethodMetrics, len(rpcMethodNames))
	for op, name := range rpcMethodNames {
		m.methods[op] = &rpcMethodMetrics{
			requests: requests.With(name),
			latency:  latency.With(name),
			ok:       m.responses.With(name, "ok"),
			shed:     shed.With(name),
			errors:   m.responses,
		}
	}
	return m
}

// rpcM lazily registers the RPC families once per Server.
func (s *Server) rpcM() *rpcMetrics {
	s.rpcOnce.Do(func() { s.rpcm = newRPCMetrics(s.metrics.reg) })
	return s.rpcm
}

// ServeRPC serves the binary protocol on the listener until ctx is
// cancelled (the daemon's -rpc-addr loop). It closes the listener on
// cancellation and returns nil; any other accept error is returned.
func (s *Server) ServeRPC(ctx context.Context, lis net.Listener) error {
	m := s.rpcM()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
		case <-done:
		}
		lis.Close()
	}()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		go s.serveRPCConn(ctx, conn, m)
	}
}

// serveRPCConn answers one connection's request frames in order.
// Framing errors (truncated header, oversized frame) tear the
// connection down — the stream position is unrecoverable; payload
// errors answer an error frame and keep the connection.
func (s *Server) serveRPCConn(ctx context.Context, conn net.Conn, m *rpcMetrics) {
	m.connections.Inc()
	defer m.connections.Dec()
	defer conn.Close()
	// Unblock the blocking frame read when the daemon shuts down.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	var buf []byte
	for {
		body, err := ReadRPCFrame(br, buf)
		if err != nil {
			if err != io.EOF && ctx.Err() == nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("rpc: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		buf = body[:0]
		resp := s.handleRPCFrame(body, m)
		if err := WriteRPCFrame(bw, resp); err != nil {
			return
		}
		// Flush once the pipeline drains: back-to-back requests already
		// buffered share one syscall's worth of responses.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// handleRPCFrame dispatches one request frame to the API core and
// encodes the response frame.
func (s *Server) handleRPCFrame(body []byte, m *rpcMetrics) []byte {
	r := &wireReader{b: body}
	op := RPCOp(r.u8())
	mm := m.methods[op]
	if r.err != nil || mm == nil {
		return MarshalRPCError(errf(errKindInvalid, "unknown rpc op %d", op))
	}
	mm.requests.Inc()
	start := time.Now()
	resp := s.callRPC(op, r, mm)
	mm.latency.Observe(time.Since(start).Seconds())
	return resp
}

func (s *Server) callRPC(op RPCOp, r *wireReader, mm *rpcMethodMetrics) []byte {
	fail := func(e *Error) []byte {
		mm.errors.With(rpcMethodNames[op], e.Kind).Inc()
		return MarshalRPCError(e)
	}
	// The three prediction ops are the read path: they hold a
	// -max-inflight slot exactly like their HTTP twins, and shed with
	// kind overloaded when the slot pool is saturated.
	if op != RPCOpModels {
		if !s.acquireRead() {
			mm.shed.Inc()
			return fail(errf(errKindOverloaded,
				"read path at its in-flight limit (%d), retry", cap(s.readSem)))
		}
		defer s.releaseRead()
	}
	switch op {
	case RPCOpPredict:
		req, err := unmarshalRPCPredictRequest(r)
		if err != nil {
			return fail(errf(errKindInvalid, "%v", err))
		}
		resp, err := s.Predict(req)
		if err != nil {
			return fail(asError(err))
		}
		mm.ok.Inc()
		return MarshalRPCPredictResponse(resp)
	case RPCOpPredictBatch:
		req, err := unmarshalRPCPredictBatchRequest(r)
		if err != nil {
			return fail(errf(errKindInvalid, "%v", err))
		}
		resp, err := s.PredictBatch(req)
		if err != nil {
			return fail(asError(err))
		}
		mm.ok.Inc()
		return MarshalRPCPredictBatchResponse(resp)
	case RPCOpTopM:
		req, err := unmarshalRPCTopMRequest(r)
		if err != nil {
			return fail(errf(errKindInvalid, "%v", err))
		}
		resp, err := s.TopM(req)
		if err != nil {
			return fail(asError(err))
		}
		mm.ok.Inc()
		return MarshalRPCTopMResponse(resp)
	default: // RPCOpModels; handleRPCFrame rejected every other op
		req, err := unmarshalRPCModelsRequest(r)
		if err != nil {
			return fail(errf(errKindInvalid, "%v", err))
		}
		resp, err := s.Models(req)
		if err != nil {
			return fail(asError(err))
		}
		mm.ok.Inc()
		return MarshalRPCModelsResponse(resp)
	}
}
