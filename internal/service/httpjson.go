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
// does.
func (p *Prediction) appendFields(b []byte, keys *configKeys) ([]byte, error) {
	b = append(b, `"index":`...)
	b = strconv.AppendInt(b, p.Index, 10)
	b = append(b, `,"config":`...)
	b = keys.appendConfig(b, p.Config)
	b = append(b, `,"seconds":`...)
	return appendJSONFloat(b, p.Seconds)
}

// configKeys is one space's parameter names in the order encoding/json
// writes map keys (sorted), each rendered once with the byte before it
// and the colon after: `{"a":` for the first key, `,"b":` for the rest.
// A serve state builds its space's keys once; every config map of every
// response it serves then skips the sort and the escaping.
type configKeys struct {
	names []string
	lead  [][]byte
}

func newConfigKeys(space *tuning.Space) *configKeys {
	params := space.Params()
	names := make([]string, len(params))
	for i, p := range params {
		names[i] = p.Name
	}
	sort.Strings(names)
	k := &configKeys{names: names, lead: make([][]byte, len(names))}
	for i, name := range names {
		open := byte(',')
		if i == 0 {
			open = '{'
		}
		k.lead[i] = append(appendJSONString([]byte{open}, name), ':')
	}
	return k
}

// appendConfig appends cfg as encoding/json writes a map[string]int. A
// map holding exactly k's names (a space's names are distinct, so equal
// lengths plus every name present is the same key set) takes the
// rendered keys; any other map, and every map when k is nil, is sorted
// and escaped here.
func (k *configKeys) appendConfig(b []byte, cfg map[string]int) []byte {
	if k != nil && len(k.names) > 0 && len(cfg) == len(k.names) {
		mark := len(b)
		for i, name := range k.names {
			v, ok := cfg[name]
			if !ok {
				b = b[:mark]
				return appendJSONIntMap(b, cfg)
			}
			b = append(b, k.lead[i]...)
			b = strconv.AppendInt(b, int64(v), 10)
		}
		return append(b, '}')
	}
	return appendJSONIntMap(b, cfg)
}

// appendJSONIntMap appends m as encoding/json writes it: null when nil,
// otherwise its keys sorted and escaped.
func appendJSONIntMap(b []byte, m map[string]int) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	b = append(b, '{')
	for i, name := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, name)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(m[name]), 10)
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
