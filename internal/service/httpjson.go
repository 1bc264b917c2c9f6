package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/tuning"
)

// This file renders HTTP response bodies. Every body is compact JSON:
// exactly the bytes json.NewEncoder(w).Encode(v) writes, trailing
// newline included. The predict, predict-batch and top-M responses —
// the bodies a caller waits on per query — append themselves by hand
// (appendJSON): encoding/json's reflection and sorted-map encoder cost
// several times the prediction they carry. Every other response goes
// through encoding/json. Both render into a pooled buffer, so a
// response that cannot be encoded never sends a partial body.

// jsonBufs pools response buffers.
var jsonBufs = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledJSON caps the buffers returned to jsonBufs: a maximal top-M
// or batch body runs to megabytes, and pinning one per pooled buffer
// would outlive the request that needed it.
const maxPooledJSON = 64 << 10

// jsonAppender is a response that renders its own JSON: appendJSON
// appends exactly what json.Marshal returns for it, and fails where
// Marshal fails (a non-finite float), with Marshal's error.
type jsonAppender interface {
	appendJSON(b []byte) ([]byte, error)
}

// writeJSON renders v as the response body with status code. A value
// that cannot be encoded answers 500 with the internal error envelope
// instead.
func writeJSON(w http.ResponseWriter, code int, v any) {
	bp := jsonBufs.Get().(*[]byte)
	b, err := appendJSONBody((*bp)[:0], v)
	if err != nil {
		code = http.StatusInternalServerError
		b, _ = appendJSONBody(b[:0], errf(errKindInternal, "encoding response: %v", err))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b)
	if cap(b) <= maxPooledJSON {
		*bp = b
		jsonBufs.Put(bp)
	}
}

// appendJSONBody appends v's body, as json.NewEncoder(w).Encode(v)
// writes it, to b.
func appendJSONBody(b []byte, v any) ([]byte, error) {
	if a, ok := v.(jsonAppender); ok {
		b, err := a.appendJSON(b)
		return append(b, '\n'), err
	}
	buf := bytes.NewBuffer(b)
	err := json.NewEncoder(buf).Encode(v)
	return buf.Bytes(), err
}

func (r *PredictResponse) appendJSON(b []byte) ([]byte, error) {
	b = appendModelFields(b, r.Benchmark, r.Device, r.Resolution)
	b = append(b, ',')
	b, err := r.Prediction.appendFields(b, r.keys)
	return append(b, '}'), err
}

func (r *PredictBatchResponse) appendJSON(b []byte) ([]byte, error) {
	b = appendModelFields(b, r.Benchmark, r.Device, r.Resolution)
	b = append(b, `,"predictions":`...)
	b, err := appendJSONPredictions(b, r.Predictions, r.keys)
	return append(b, '}'), err
}

func (r *TopMResponse) appendJSON(b []byte) ([]byte, error) {
	b = appendModelFields(b, r.Benchmark, r.Device, r.Resolution)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(r.M), 10)
	b = append(b, `,"top":`...)
	b, err := appendJSONPredictions(b, r.Top, r.keys)
	return append(b, '}'), err
}

// appendModelFields opens a read-path response object with the fields
// every one of them starts with.
func appendModelFields(b []byte, benchmark, device, resolution string) []byte {
	b = append(b, `{"benchmark":`...)
	b = appendJSONString(b, benchmark)
	b = append(b, `,"device":`...)
	b = appendJSONString(b, device)
	b = append(b, `,"resolution":`...)
	return appendJSONString(b, resolution)
}

// appendJSONPredictions appends ps as a JSON array (null when nil).
func appendJSONPredictions(b []byte, ps []Prediction, keys *configKeys) ([]byte, error) {
	if ps == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '{')
		var err error
		if b, err = ps[i].appendFields(b, keys); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// appendFields appends p's fields without the enclosing braces, so
// PredictResponse can flatten the embedded Prediction as encoding/json
// does. The config field is rendered from the index (see configKeys).
func (p *Prediction) appendFields(b []byte, keys *configKeys) ([]byte, error) {
	b = append(b, `"index":`...)
	b = strconv.AppendInt(b, p.Index, 10)
	b = append(b, `,"config":`...)
	b = keys.appendConfig(b, p.Index)
	b = append(b, `,"seconds":`...)
	return appendJSONFloat(b, p.Seconds)
}

// configKeys renders the configurations of one space. Its names are the
// space's parameter names in the order encoding/json writes map keys
// (sorted), each rendered once with the comma before it and the colon
// after: `"a":` for the first key, `,"b":` for the rest; pos[i] is name
// i's parameter position. A serve state builds its space's keys
// once; every config of every response it serves is then decoded from
// its index and written without a map, a sort or an escape.
type configKeys struct {
	params []tuning.Param
	pos    []int
	lead   [][]byte
}

func newConfigKeys(space *tuning.Space) *configKeys {
	params := space.Params()
	pos := make([]int, len(params))
	for i := range pos {
		pos[i] = i
	}
	sort.Slice(pos, func(i, j int) bool { return params[pos[i]].Name < params[pos[j]].Name })
	k := &configKeys{params: params, pos: pos, lead: make([][]byte, len(pos))}
	for i, p := range pos {
		var lead []byte
		if i > 0 {
			lead = []byte{','}
		}
		k.lead[i] = append(appendJSONString(lead, params[p].Name), ':')
	}
	return k
}

// appendConfig appends the configuration at index idx of k's space as
// encoding/json writes its tuning.Config.Map(); null when k is nil.
func (k *configKeys) appendConfig(b []byte, idx int64) []byte {
	if k == nil {
		return append(b, "null"...)
	}
	var buf [16]int
	values := buf[:]
	if len(k.params) > len(buf) {
		values = make([]int, len(k.params))
	}
	for p := len(k.params) - 1; p >= 0; p-- {
		arity := int64(k.params[p].Arity())
		values[p] = k.params[p].Values[idx%arity]
		idx /= arity
	}
	b = append(b, '{')
	for i, p := range k.pos {
		b = append(b, k.lead[i]...)
		b = strconv.AppendInt(b, int64(values[p]), 10)
	}
	return append(b, '}')
}

// appendJSONFloat appends f as encoding/json's float64 encoder does:
// the shortest representation, in 'f' form unless the magnitude is
// below 1e-6 or at least 1e21, and with 'e' exponents unpadded (e-07
// becomes e-7). NaN and ±Inf have no JSON form; they fail with the
// error json.Marshal returns for them.
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted as encoding/json writes strings with
// its default HTML escaping: ", \ and the ASCII controls escaped (\n,
// \r, \t, \b and \f by name, the rest as \u00XX), <, > and & as \u00XX,
// U+2028 and U+2029 as \u202X, and each byte of invalid UTF-8 replaced
// by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
