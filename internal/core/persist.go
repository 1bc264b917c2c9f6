package core

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/ann"
	"repro/internal/tuning"
)

// modelFormat identifies the on-disk model format: a single JSON header
// line (human-inspectable with `head -1`) followed by a versioned body.
// Four header versions are in circulation:
//
//	version 1 — the original parameter-only layout: the header carries
//	  the tuning space and model flags, the body is a gob payload; the
//	  feature schema is implicitly tuning.ParamSchema(space).
//	version 2 — adds the "schema" field recording the feature blocks
//	  beyond the parameters (the device block of portable models; a
//	  header declaring an input block is rejected). The parameter encoding is unchanged, so a v1
//	  file loaded by this build predicts bit-identically to the build
//	  that wrote it. Body still gob.
//	version 3 — same header fields as v2 ("schema" present only when
//	  the model has a tail), but the body is the compact binary section
//	  stream of internal/core/persistbin.go: length-prefixed
//	  little-endian sections with the raw weight block 8-aligned, so
//	  replica installs parse a flat buffer instead of paying gob's
//	  reflective decode.
//	version 4 — same header fields as v3, space-padded to a 64-byte
//	  boundary, and the body is the section arena of
//	  internal/core/persistbin4.go: 64-byte-aligned sections carrying
//	  the float64 weights. Loading copy-decodes them onto the heap like
//	  v3; the alignment is a format invariant only. Quantised engines
//	  are built from those weights after loading; the engine tables
//	  older v4 files carry are skipped.
//
// Save writes version 4 for every model, whatever version it was loaded
// from; the re-saved artifact predicts bit-identically. Every v1–v4
// artifact still loads through one path: LoadModelBytes parses the
// header, rebuilds the schema (decodeSchema) and decodes the body by
// version. Loading returns *UnsupportedVersionError for anything newer
// than maxModelVersion.
const (
	modelFormat     = "mltune-model"
	modelVersion    = 1
	modelVersionV2  = 2
	modelVersionV3  = 3
	modelVersionV4  = 4
	maxModelVersion = modelVersionV4
)

// UnsupportedVersionError reports a model file written by a newer build:
// its header version is outside the range this build decodes.
type UnsupportedVersionError struct {
	// Version is the file's header version.
	Version int
	// Max is the newest version this build decodes.
	Max int
}

func (e *UnsupportedVersionError) Error() string {
	return fmt.Sprintf("core: unsupported model version %d (this build reads versions 1 through %d)", e.Version, e.Max)
}

// modelHeader is the JSON first line of a saved model. It carries
// everything needed to rebuild the tuning space and feature schema (and
// thus the feature encoder) plus the model flags, so a model trained on
// one machine can be reloaded and queried anywhere — the artifact behind
// the paper's performance portability story.
type modelHeader struct {
	Format       string      `json:"format"`
	Version      int         `json:"version"`
	Space        spaceHeader `json:"space"`
	LogTransform bool        `json:"log_transform"`
	Members      int         `json:"members"`
	// Schema records the feature blocks beyond the parameter block
	// (version >= 2; nil means parameter-only).
	Schema *schemaHeader `json:"schema,omitempty"`
}

type spaceHeader struct {
	Name   string        `json:"name"`
	Params []paramHeader `json:"params"`
}

type paramHeader struct {
	Name   string `json:"name"`
	Values []int  `json:"values"`
}

// schemaHeader records a schema's non-parameter blocks by feature name,
// in encode order. Loading verifies the device names against the current
// build's tuning.DeviceFieldNames: a model whose device features were
// derived differently must not silently mis-predict. Input is decoded
// only to be rejected: no build writes an input block, and a model
// declaring one could never be predicted with.
type schemaHeader struct {
	Device []string `json:"device,omitempty"`
	Input  []string `json:"input,omitempty"`
}

// modelPayload is the gob-encoded body of a saved model.
type modelPayload struct {
	Scaler   ann.TargetScaler
	Ensemble ann.EnsembleState
}

// Save writes the model to w in the versioned persistence format: a
// one-line JSON header followed by the version-4 arena body (see
// persistbin4.go), whatever version the model was loaded from. Writing
// is deterministic byte for byte, and a model saved on one machine
// reloads with LoadModel to bit-identical predictions. Saving a bound
// portable view persists the portable model; the binding — like the
// engine selection — is per-process state, re-established with
// WithDevice/WithEngine after loading.
func (m *Model) Save(w io.Writer) error {
	params := make([]paramHeader, len(m.space.Params()))
	for i, p := range m.space.Params() {
		params[i] = paramHeader{Name: p.Name, Values: append([]int(nil), p.Values...)}
	}
	hdr := modelHeader{
		Format:       modelFormat,
		Version:      modelVersionV4,
		Space:        spaceHeader{Name: m.space.Name(), Params: params},
		LogTransform: m.logT,
		Members:      m.ensemble.Size(),
	}
	if m.schema.TailDim() > 0 {
		hdr.Schema = &schemaHeader{Device: m.schema.DeviceFields()}
	}
	line, err := json.Marshal(hdr)
	if err != nil {
		return fmt.Errorf("core: encoding model header: %w", err)
	}
	// Space-pad the header so the body starts at a 64-byte file offset:
	// every v4 section payload then lands 64-byte aligned in the file
	// (JSON ignores trailing whitespace).
	for (len(line)+1)%binAlign4 != 0 {
		line = append(line, ' ')
	}
	if _, err := w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("core: writing model header: %w", err)
	}
	return writeBinaryPayloadV4(w, m.scaler, m.ensemble.State())
}

// WeightFormat returns the persistence version the model's weights were
// loaded from, or the version Save would write (the current one) for a
// freshly trained model. Surfaced by /v1/models so a fleet rollout can
// tell which replicas still hold gob-era artifacts.
func (m *Model) WeightFormat() int {
	if m.persistVersion != 0 {
		return m.persistVersion
	}
	return modelVersionV4
}

// SaveFile saves the model to the named file (see Save).
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// decodeSchema rebuilds the feature schema a header implies. Version 1
// is parameter-only; from version 2 on the header records the blocks
// beyond the parameters, and the device block is verified against this
// build's feature derivation.
func decodeSchema(hdr *modelHeader, space *tuning.Space) (*tuning.FeatureSchema, error) {
	if hdr.Schema == nil {
		return tuning.ParamSchema(space), nil
	}
	if hdr.Version == modelVersion {
		return nil, fmt.Errorf("core: version-1 model header unexpectedly carries a schema")
	}
	if len(hdr.Schema.Input) > 0 {
		return nil, fmt.Errorf("core: saved model declares a %d-feature input block, which no build supports", len(hdr.Schema.Input))
	}
	if len(hdr.Schema.Device) == 0 {
		return tuning.ParamSchema(space), nil
	}
	want := tuning.DeviceFieldNames()
	if len(hdr.Schema.Device) != len(want) {
		return nil, fmt.Errorf("core: saved model records %d device features, this build derives %d",
			len(hdr.Schema.Device), len(want))
	}
	for i, name := range hdr.Schema.Device {
		if name != want[i] {
			return nil, fmt.Errorf("core: saved model device feature %d is %q, this build derives %q",
				i, name, want[i])
		}
	}
	return tuning.NewFeatureSchema(space, tuning.WithDeviceBlock()), nil
}

// LoadModel reads a model previously written by Model.Save: it reads r
// to the end and loads the image with LoadModelBytes. The tuning space
// and feature schema are rebuilt from the header, so the loaded model
// predicts over an equivalent space without needing the original
// benchmark definition. Files written by a newer build fail with
// *UnsupportedVersionError.
func LoadModel(r io.Reader) (*Model, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading model: %w", err)
	}
	return LoadModelBytes(data)
}

// checkEnsembleWidth verifies the ensemble input width against the
// schema: the schema fixes the feature-vector width, and a mismatch
// would read out of bounds on every prediction.
func (m *Model) checkEnsembleWidth() error {
	for _, n := range m.ensemble.Members() {
		if n.Sizes()[0] != m.schema.Dim() {
			return fmt.Errorf("core: model expects %d features, schema for space %q encodes %d",
				n.Sizes()[0], m.space.Name(), m.schema.Dim())
		}
	}
	return nil
}

// LoadModelBytes loads a model from an in-memory file image, dispatching
// on the header version (see modelFormat) — the one load path every
// entry point shares. Every version decodes by copying: the returned
// model owns its weights and keeps no reference to data, so the caller
// may reuse or overwrite data once LoadModelBytes returns.
//
// The variadic parameter is unused. It exists only so that perfbench's
// LoadModelBytes(b, nil) calls keep compiling, and goes once they drop
// the nil.
func LoadModelBytes(data []byte, _ ...any) (*Model, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("core: model image has no header line")
	}
	var hdr modelHeader
	if err := json.Unmarshal(data[:nl], &hdr); err != nil {
		return nil, fmt.Errorf("core: parsing model header: %w", err)
	}
	if hdr.Format != modelFormat {
		return nil, fmt.Errorf("core: not a saved model (format %q, want %q)", hdr.Format, modelFormat)
	}
	if hdr.Version < modelVersion || hdr.Version > maxModelVersion {
		return nil, &UnsupportedVersionError{Version: hdr.Version, Max: maxModelVersion}
	}
	space, err := spaceFromHeader(hdr.Space)
	if err != nil {
		return nil, err
	}
	schema, err := decodeSchema(&hdr, space)
	if err != nil {
		return nil, err
	}
	body := data[nl+1:]
	var d *decodedBody
	if hdr.Version >= modelVersionV3 {
		d, err = decodeBinaryPayload(body, hdr.Version, hdr.Members)
	} else {
		d, err = decodeGobPayload(body)
	}
	if err != nil {
		return nil, err
	}
	m := &Model{
		space:          space,
		schema:         schema,
		ensemble:       d.ensemble,
		scaler:         d.scaler,
		logT:           hdr.LogTransform,
		engine:         ann.Float64Engine{E: d.ensemble},
		persistVersion: hdr.Version,
	}
	if err := m.checkEnsembleWidth(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeGobPayload decodes a v1/v2 gob body.
func decodeGobPayload(body []byte) (*decodedBody, error) {
	var payload modelPayload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&payload); err != nil {
		return nil, fmt.Errorf("core: decoding model payload: %w", err)
	}
	ensemble, err := ann.EnsembleFromState(payload.Ensemble)
	if err != nil {
		return nil, err
	}
	return &decodedBody{scaler: payload.Scaler, ensemble: ensemble}, nil
}

// LoadModelFile loads a model from the named file: it reads the whole
// file and loads the image with LoadModelBytes, so the model never
// refers back to the file and a later rewrite of it cannot reach the
// loaded model.
func LoadModelFile(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return LoadModelBytes(data)
}

// spaceFromHeader validates and rebuilds a tuning space from a saved
// header, without trusting the input (tuning.NewSpace panics on
// malformed parameters, so everything is checked here first).
func spaceFromHeader(sh spaceHeader) (*tuning.Space, error) {
	if len(sh.Params) == 0 {
		return nil, fmt.Errorf("core: saved model has an empty tuning space")
	}
	names := make(map[string]bool, len(sh.Params))
	params := make([]tuning.Param, len(sh.Params))
	for i, ph := range sh.Params {
		if ph.Name == "" {
			return nil, fmt.Errorf("core: saved model parameter %d has no name", i)
		}
		if names[ph.Name] {
			return nil, fmt.Errorf("core: saved model has duplicate parameter %q", ph.Name)
		}
		names[ph.Name] = true
		if len(ph.Values) == 0 {
			return nil, fmt.Errorf("core: saved model parameter %q has no values", ph.Name)
		}
		seen := make(map[int]bool, len(ph.Values))
		for _, v := range ph.Values {
			if seen[v] {
				return nil, fmt.Errorf("core: saved model parameter %q has duplicate value %d", ph.Name, v)
			}
			seen[v] = true
		}
		params[i] = tuning.NewParam(ph.Name, ph.Values...)
	}
	return tuning.NewSpace(sh.Name, params...), nil
}
