package core

import (
	"errors"
	"fmt"
	"math"
)

// Request resolution. Every model query has two inputs, a Scheme and
// the eleven Params, and every surface that accepts queries — the
// cohered handlers, the coheregw routing key, the cohere CLI — turns a
// request into that pair through the types and functions below, so the
// surfaces cannot drift apart. The JSON types embed directly into a
// request struct; decoding the request decodes them in the same pass.

// Knobs carries a request's optional scheme tuning values. Each applies
// only to the registered scheme whose Info.Knob names it.
type Knobs struct {
	// LockFrac tunes Hybrid's lock fraction.
	LockFrac *float64 `json:"lockfrac,omitempty"`
	// UpdateFrac tunes Hybrid-Update's update share.
	UpdateFrac *float64 `json:"updatefrac,omitempty"`
}

// SchemeSpec selects one scheme: a registered name or alias plus its
// knob values.
type SchemeSpec struct {
	// Scheme is the registered name or alias.
	Scheme string `json:"scheme"`
	Knobs
}

// Resolve resolves the named scheme with its knob values. The checks
// are strict: a knob the scheme does not have is an error, as are both
// knobs at once and a value outside [0,1]. Without a knob value a
// knobbed scheme gets its registered default.
func (s SchemeSpec) Resolve() (Scheme, error) {
	info, err := lookupScheme(s.Scheme)
	if err != nil {
		return nil, err
	}
	return info.configure(s.Knobs)
}

// Workload selects the workload parameters: a whole Table 7 column by
// Level, or Params with omitted fields at Table 7's middle column. The
// two are mutually exclusive; with neither, the workload is the middle
// column.
type Workload struct {
	// Level is a LevelParams name.
	Level string `json:"level,omitempty"`
	// Params overrides individual parameters of the middle column.
	Params *ParamsJSON `json:"params,omitempty"`
}

// Resolve returns the validated workload.
func (w Workload) Resolve() (Params, error) {
	if w.Level == "" {
		return w.Params.Resolve()
	}
	if w.Params != nil {
		return Params{}, errors.New(`"level" and "params" are mutually exclusive`)
	}
	return LevelParams(w.Level)
}

// LevelParams returns the workload with every field at the named
// Table 7 level: "low", "mid" (or "middle"), or "high".
func LevelParams(name string) (Params, error) {
	switch name {
	case "low":
		return ParamsAt(Low), nil
	case "mid", "middle":
		return ParamsAt(Mid), nil
	case "high":
		return ParamsAt(High), nil
	}
	return Params{}, fmt.Errorf("unknown level %q (want low, mid, middle, or high)", name)
}

// ResolveSchemes resolves a list of names that share one set of knob
// values. Each knob goes only to the listed schemes that have it, so a
// list may carry "lockfrac" without erroring on its knobless schemes.
func ResolveSchemes(names []string, k Knobs) ([]Scheme, error) {
	out := make([]Scheme, 0, len(names))
	for _, name := range names {
		info, err := lookupScheme(name)
		if err != nil {
			return nil, err
		}
		var own Knobs
		switch info.Knob {
		case "lockfrac":
			own.LockFrac = k.LockFrac
		case "updatefrac":
			own.UpdateFrac = k.UpdateFrac
		}
		sch, err := info.configure(own)
		if err != nil {
			return nil, err
		}
		out = append(out, sch)
	}
	return out, nil
}

// lookupScheme is SchemeInfoByName with the names-listing error.
func lookupScheme(name string) (Info, error) {
	if info, ok := SchemeInfoByName(name); ok {
		return info, nil
	}
	_, err := SchemeByName(name)
	return Info{}, err
}

// configure builds the entry's instance for the given knob values.
func (info Info) configure(k Knobs) (Scheme, error) {
	var knob *float64
	switch {
	case k.LockFrac != nil && k.UpdateFrac != nil:
		return nil, errors.New(`"lockfrac" and "updatefrac" are mutually exclusive`)
	case k.LockFrac != nil:
		if info.Knob != "lockfrac" {
			return nil, errors.New(`"lockfrac" only applies to scheme "hybrid"`)
		}
		knob = k.LockFrac
	case k.UpdateFrac != nil:
		if info.Knob != "updatefrac" {
			return nil, errors.New(`"updatefrac" only applies to scheme "hybrid-update"`)
		}
		knob = k.UpdateFrac
	}
	if info.Configure == nil {
		return info.Scheme, nil
	}
	v := info.KnobDefault
	if knob != nil {
		v = *knob
		if math.IsNaN(v) || v < 0 || v > 1 {
			return nil, fmt.Errorf("%s %v not in [0,1]", info.Knob, v)
		}
	}
	return info.Configure(v)
}
