package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// ParamsJSON is the JSON form of Params, keyed by the paper's parameter
// names. Every field is optional: Resolve fills omitted ones from
// Table 7's middle column.
type ParamsJSON struct {
	// LS overrides Params.LS.
	LS *float64 `json:"ls"`

	// MsDat overrides Params.MsDat.
	MsDat *float64 `json:"msdat"`

	// MsIns overrides Params.MsIns.
	MsIns *float64 `json:"mains"`

	// MD overrides Params.MD.
	MD *float64 `json:"md"`

	// Shd overrides Params.Shd.
	Shd *float64 `json:"shd"`

	// WR overrides Params.WR.
	WR *float64 `json:"wr"`

	// APL overrides Params.APL.
	APL *float64 `json:"apl"`

	// MdShd overrides Params.MdShd.
	MdShd *float64 `json:"mdshd"`

	// OClean overrides Params.OClean.
	OClean *float64 `json:"oclean"`

	// OPres overrides Params.OPres.
	OPres *float64 `json:"opres"`

	// NShd overrides Params.NShd.
	NShd *float64 `json:"nshd"`
}

// Resolve returns the middle-column workload with the given fields
// overridden, validated. A nil receiver is the middle column itself.
func (pj *ParamsJSON) Resolve() (Params, error) {
	p := MiddleParams()
	if pj == nil {
		return p, nil
	}
	apply := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	apply(&p.LS, pj.LS)
	apply(&p.MsDat, pj.MsDat)
	apply(&p.MsIns, pj.MsIns)
	apply(&p.MD, pj.MD)
	apply(&p.Shd, pj.Shd)
	apply(&p.WR, pj.WR)
	apply(&p.APL, pj.APL)
	apply(&p.MdShd, pj.MdShd)
	apply(&p.OClean, pj.OClean)
	apply(&p.OPres, pj.OPres)
	apply(&p.NShd, pj.NShd)
	if err := p.Validate(); err != nil {
		return Params{}, err
	}
	return p, nil
}

// ReadParams decodes a JSON workload description. Omitted fields default
// to their Table 7 middle values, so a file can override just the
// parameters a study cares about:
//
//	{"shd": 0.4, "apl": 2}
//
// Unknown fields are rejected (they are almost certainly typos of the
// paper's parameter names). The result is validated.
func ReadParams(r io.Reader) (Params, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var pj ParamsJSON
	if err := dec.Decode(&pj); err != nil {
		return Params{}, fmt.Errorf("core: decoding params: %w", err)
	}
	return pj.Resolve()
}

// WriteParams encodes the workload as indented JSON with the paper's
// parameter names.
func (p Params) WriteParams(w io.Writer) error {
	if err := p.Validate(); err != nil {
		return err
	}
	pj := ParamsJSON{
		LS: &p.LS, MsDat: &p.MsDat, MsIns: &p.MsIns, MD: &p.MD,
		Shd: &p.Shd, WR: &p.WR, APL: &p.APL, MdShd: &p.MdShd,
		OClean: &p.OClean, OPres: &p.OPres, NShd: &p.NShd,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(pj)
}
