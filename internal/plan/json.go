package plan

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/jsonlex"
	"repro/internal/platform"
)

// jsonPlan is the on-disk representation of a logical plan, consumed by the
// robopt CLI and producible by any client. These structs are the encode-side
// shape only: DecodeJSONPlan parses the same grammar by hand.
type jsonPlan struct {
	AvgTupleBytes float64    `json:"avgTupleBytes"`
	Operators     []jsonOp   `json:"operators"`
	Loops         []jsonLoop `json:"loops,omitempty"`
}

type jsonOp struct {
	ID          int     `json:"id"`
	Kind        string  `json:"kind"`
	Name        string  `json:"name,omitempty"`
	UDF         string  `json:"udf,omitempty"` // defaults to Linear
	Selectivity float64 `json:"selectivity,omitempty"`
	Card        float64 `json:"card,omitempty"` // sources only
	In          []int   `json:"in,omitempty"`
	Loop        int     `json:"loop,omitempty"`
}

type jsonLoop struct {
	ID         int `json:"id"`
	Iterations int `json:"iterations"`
}

// MarshalJSONPlan encodes a logical plan. Loops are listed in ID order, so
// equal plans encode to equal bytes.
func MarshalJSONPlan(l *Logical) ([]byte, error) {
	jp := jsonPlan{AvgTupleBytes: l.AvgTupleBytes}
	for _, o := range l.Ops {
		op := jsonOp{
			ID:          int(o.ID),
			Kind:        o.Kind.String(),
			Name:        o.Name,
			UDF:         o.UDF.String(),
			Selectivity: o.Selectivity,
			Loop:        o.LoopID,
		}
		for _, p := range o.In {
			op.In = append(op.In, int(p))
		}
		if len(o.In) == 0 {
			op.Card = l.SourceCards[o.ID]
		}
		jp.Operators = append(jp.Operators, op)
	}
	for id, it := range l.Loops {
		jp.Loops = append(jp.Loops, jsonLoop{ID: id, Iterations: it})
	}
	sort.Slice(jp.Loops, func(i, j int) bool { return jp.Loops[i].ID < jp.Loops[j].ID })
	return json.MarshalIndent(jp, "", "  ")
}

// UnmarshalJSONPlan reads r to its end and decodes it with DecodeJSONPlan.
func UnmarshalJSONPlan(r io.Reader) (*Logical, error) {
	// A reader that knows how much it holds (bytes.Reader, strings.Reader,
	// bytes.Buffer) is read in one piece.
	var buf bytes.Buffer
	if s, ok := r.(interface{ Len() int }); ok {
		buf.Grow(s.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("plan: decoding JSON plan: %w", err)
	}
	return DecodeJSONPlan(buf.Bytes())
}

// kindByName and udfByName resolve the names the wire format uses; indexing
// them with string(b) for a byte slice b does not allocate. maxFanIn is the
// largest input arity of any kind: a longer "in" list cannot validate, so the
// decoder stops reading one there rather than buffer whatever a body sends.
var (
	kindByName = map[string]platform.Kind{}
	udfByName  = map[string]platform.Complexity{}
	maxFanIn   int
)

func init() {
	for _, k := range platform.AllKinds() {
		kindByName[k.String()] = k
		maxFanIn = max(maxFanIn, platform.ArityOf(k).In)
	}
	for c := platform.Logarithmic; c <= platform.SuperQuadratic; c++ {
		udfByName[c.String()] = c
	}
}

// maxSlabHint caps how many operators the decoder sizes the Builder's slabs
// for before it has parsed any: the count comes from unparsed bytes, and a
// body of a million '{' must not be answered with a million operators'
// worth of memory. Larger plans grow the slabs as their operators arrive.
const maxSlabHint = 64

// DecodeJSONPlan decodes and validates a logical plan. Operators must be
// listed so that every operator's inputs precede it (IDs are re-derived from
// list order and must match the declared ids). Loop regions are renumbered
// 1..k in the order the operator list first references them.
//
// The accepted grammar is the JSON MarshalJSONPlan writes, with keys in any
// order and any JSON whitespace, and nothing else: keys are matched
// exact-case, an unknown or repeated key is an error, so is null in place of
// a value, and so is anything but whitespace after the closing brace.
func DecodeJSONPlan(data []byte) (*Logical, error) {
	d := decoder{
		Scanner: jsonlex.Scanner{Data: data, What: "plan: decoding JSON plan"},
		in:      make([]OpID, 0, maxFanIn),
	}
	// Every operator and loop is an object inside the top-level one, so the
	// '{' count bounds the operator count, and is exact for a plan without
	// loops or braces in its names. Names are a small part of a body.
	nOps := min(bytes.Count(data, []byte{'{'}), maxSlabHint)
	d.b = newBuilder(0, nOps, len(data)/16)
	if err := d.plan(); err != nil {
		return nil, err
	}
	return d.b.Build()
}

// decoder is a single-pass parser of the plan grammar over data, feeding the
// Builder as operators complete. It does not recurse: the grammar's nesting
// is fixed (plan → operators → operator → in), so a deeply nested body is
// rejected at its first misplaced bracket. Tokens are jsonlex's; which keys
// an object takes, each at most once, is decided here.
type decoder struct {
	jsonlex.Scanner
	b  *Builder
	in []OpID // the current operator's in list, reused across operators
	// loops are the declared regions (the last declaration of an id wins,
	// as it always has); nil until the body declares one.
	loops map[int]int
}

// Field bits: which keys an object takes, and which it has had.
const (
	fAvgTupleBytes = 1 << iota
	fOperators
	fLoops
	fID
	fKind
	fName
	fUDF
	fSelectivity
	fCard
	fIn
	fLoop
	fIterations
)

func (d *decoder) plan() error {
	avg := 0.0
	err := d.object(fAvgTupleBytes|fOperators|fLoops, func(field uint) (err error) {
		switch field {
		case fAvgTupleBytes:
			avg, err = d.Float()
		case fOperators:
			err = d.Array(d.operator)
		case fLoops:
			err = d.Array(d.loop)
		}
		return err
	})
	if err != nil {
		return err
	}
	if d.SkipSpace(); d.Pos != len(d.Data) {
		return d.Errorf("data after the plan object")
	}
	if avg <= 0 {
		avg = 100
	}
	d.b.avgTupleBytes = avg
	return d.numberLoops()
}

// operator parses the operator object at list position i and adds it to the
// plan.
func (d *decoder) operator(i int) error {
	var (
		id, loop        int
		kind, name, udf []byte
		sel, card       float64
	)
	d.in = d.in[:0]
	err := d.object(fID|fKind|fName|fUDF|fSelectivity|fCard|fIn|fLoop, func(field uint) (err error) {
		switch field {
		case fID:
			id, err = d.Int()
		case fKind:
			kind, err = d.Str()
		case fName:
			name, err = d.Str()
		case fUDF:
			udf, err = d.Str()
		case fSelectivity:
			sel, err = d.Float()
		case fCard:
			card, err = d.Float()
		case fIn:
			err = d.Array(func(int) error {
				if len(d.in) == maxFanIn {
					return fmt.Errorf("plan: operator at position %d lists more than %d inputs, which no kind takes", i, maxFanIn)
				}
				p, err := d.Int()
				d.in = append(d.in, OpID(p))
				return err
			})
		case fLoop:
			loop, err = d.Int()
		}
		return err
	})
	if err != nil {
		return err
	}
	if id != i {
		return fmt.Errorf("plan: operator at position %d declares id %d; ids must be dense and ordered", i, id)
	}
	k, ok := kindByName[string(kind)]
	if !ok {
		_, err := platform.KindByName(string(kind))
		return err
	}
	c := platform.Linear
	if len(udf) > 0 {
		if c, ok = udfByName[string(udf)]; !ok {
			return fmt.Errorf("plan: operator %d has unknown UDF complexity %q", i, udf)
		}
	}
	if sel == 0 {
		sel = 1
	}
	var op OpID
	if k.IsSource() {
		if card <= 0 {
			return fmt.Errorf("plan: source operator %d needs a positive card", i)
		}
		op = d.b.Source(k, d.b.intern(name), card)
	} else {
		op = d.b.add(k, d.b.intern(name), c, sel, d.in)
	}
	// The declared id stands in for the region's until numberLoops.
	d.b.ops[op].LoopID = loop
	return nil
}

// loop parses one declared loop region.
func (d *decoder) loop(int) error {
	var id, iterations int
	err := d.object(fID|fIterations, func(field uint) (err error) {
		if field == fID {
			id, err = d.Int()
		} else {
			iterations, err = d.Int()
		}
		return err
	})
	if d.loops == nil {
		d.loops = map[int]int{}
	}
	d.loops[id] = iterations
	return err
}

// numberLoops replaces the declared loop ids the operators carry by region
// numbers 1..k in order of first reference, so the same body always decodes
// to the same plan. A declared region no operator references is dropped.
func (d *decoder) numberLoops() error {
	var regions map[int]int // declared id → region number
	for _, o := range d.b.ops {
		if o.LoopID == 0 {
			continue
		}
		region, ok := regions[o.LoopID]
		if !ok {
			iterations, declared := d.loops[o.LoopID]
			if !declared {
				return fmt.Errorf("plan: operators reference undeclared loop %d", o.LoopID)
			}
			if regions == nil {
				regions = map[int]int{}
			}
			region = d.b.Loop(iterations)
			regions[o.LoopID] = region
		}
		o.LoopID = region
	}
	return nil
}

// fieldOf maps the grammar's keys to their field bits; any other key maps to
// 0, which no object accepts.
func fieldOf(key []byte) uint {
	switch string(key) {
	case "avgTupleBytes":
		return fAvgTupleBytes
	case "operators":
		return fOperators
	case "loops":
		return fLoops
	case "id":
		return fID
	case "kind":
		return fKind
	case "name":
		return fName
	case "udf":
		return fUDF
	case "selectivity":
		return fSelectivity
	case "card":
		return fCard
	case "in":
		return fIn
	case "loop":
		return fLoop
	case "iterations":
		return fIterations
	}
	return 0
}

// object parses an object whose keys must be distinct members of fields,
// calling value at the start of each key's value.
func (d *decoder) object(fields uint, value func(field uint) error) error {
	if err := d.Open('{'); err != nil {
		return err
	}
	var seen uint
	for first := true; ; first = false {
		ok, err := d.More(first, '}')
		if err != nil || !ok {
			return err
		}
		key, err := d.Key()
		if err != nil {
			return err
		}
		field := fieldOf(key)
		if field&fields == 0 {
			return d.Errorf("unknown field %q", key)
		}
		if field&seen != 0 {
			return d.Errorf("duplicate field %q", key)
		}
		seen |= field
		if err := value(field); err != nil {
			return err
		}
	}
}
