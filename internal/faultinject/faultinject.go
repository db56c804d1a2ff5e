// Package faultinject reimplements the semantics of the TF-DM training-data
// fault injector used by the paper (Narayanan & Pattabiraman, DeepTest'21).
// It injects three fault types into a labelled dataset, uniformly at
// random, at a configurable rate:
//
//   - Mislabel: a fraction of examples get a wrong label (uniform over the
//     other classes);
//   - Repeat: a fraction of examples is duplicated and appended;
//   - Remove: a fraction of examples is deleted.
//
// Fault types compose (§IV-C of the paper studies combinations); Inject
// applies a sequence in order. Injection never mutates its input dataset,
// and a set of protected indices can be excluded — the label-correction
// technique reserves a clean subset this way (§III-B2).
package faultinject

import (
	"fmt"
	"sort"

	"tdfm/internal/data"
	"tdfm/internal/xrand"
)

// Type enumerates the training-data fault types of the study.
type Type int

// Fault types. Values start at 1 so the zero value is invalid.
const (
	Mislabel Type = iota + 1
	Repeat
	Remove
)

// String returns the fault-type name used in reports and CLI flags.
func (t Type) String() string {
	switch t {
	case Mislabel:
		return "mislabel"
	case Repeat:
		return "repeat"
	case Remove:
		return "remove"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ParseType converts a CLI name to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "mislabel", "mislabelling", "mislabeling":
		return Mislabel, nil
	case "repeat", "repetition":
		return Repeat, nil
	case "remove", "removal":
		return Remove, nil
	default:
		return 0, fmt.Errorf("faultinject: unknown fault type %q", s)
	}
}

// Spec is one fault-injection step.
type Spec struct {
	Type Type
	Rate float64 // fraction of the dataset affected, in [0, 1]
}

// Validate checks the spec.
func (s Spec) Validate() error {
	switch s.Type {
	case Mislabel, Repeat, Remove:
	default:
		return fmt.Errorf("faultinject: invalid fault type %d", int(s.Type))
	}
	if s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("faultinject: rate %v out of [0,1]", s.Rate)
	}
	return nil
}

// Report records what one injection step did.
type Report struct {
	Spec     Spec
	Affected []int // indices (into the step's input dataset) that were faulted
	// SizeBefore and SizeAfter track dataset growth/shrinkage for
	// repetition and removal faults.
	SizeBefore int
	SizeAfter  int
}

// Injector applies fault specs to datasets with deterministic randomness.
type Injector struct {
	rng *xrand.RNG
	// protected indices (in the ORIGINAL dataset's indexing) never faulted.
	protected map[int]bool
}

// New returns an injector drawing randomness from rng.
func New(rng *xrand.RNG) *Injector {
	return &Injector{rng: rng, protected: map[int]bool{}}
}

// Protect marks indices of the input dataset as exempt from injection.
// Protection is tracked across steps of a single Inject call as indices
// shift under removal/repetition.
func (in *Injector) Protect(indices []int) {
	for _, i := range indices {
		in.protected[i] = true
	}
}

// eligible returns the non-protected indices of a dataset of length n given
// the current protected-set mapping.
func (in *Injector) eligible(protected map[int]bool, n int) []int {
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if !protected[i] {
			out = append(out, i)
		}
	}
	return out
}

// Inject applies the specs in order to a copy of ds and returns the faulted
// dataset plus one report per step. The input dataset is never modified.
func (in *Injector) Inject(ds *data.Dataset, specs ...Spec) (*data.Dataset, []Report, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, nil, err
		}
	}
	cur := ds.Clone()
	// Copy the protected set; steps remap it as indices shift.
	protected := make(map[int]bool, len(in.protected))
	for i := range in.protected {
		if i < 0 || i >= ds.Len() {
			return nil, nil, fmt.Errorf("faultinject: protected index %d out of range [0,%d)", i, ds.Len())
		}
		protected[i] = true
	}
	reports := make([]Report, 0, len(specs))
	for _, spec := range specs {
		var rep Report
		var err error
		cur, protected, rep, err = in.step(cur, protected, spec)
		if err != nil {
			return nil, nil, err
		}
		reports = append(reports, rep)
	}
	return cur, reports, nil
}

func (in *Injector) step(ds *data.Dataset, protected map[int]bool, spec Spec) (*data.Dataset, map[int]bool, Report, error) {
	rep := Report{Spec: spec, SizeBefore: ds.Len()}
	elig := in.eligible(protected, ds.Len())
	count := int(float64(spec.Rate*float64(ds.Len())) + 0.5)
	if count > len(elig) {
		count = len(elig)
	}
	chosen := in.rng.Choice(len(elig), count)
	affected := make([]int, count)
	for i, c := range chosen {
		affected[i] = elig[c]
	}
	sort.Ints(affected)
	rep.Affected = affected

	switch spec.Type {
	case Mislabel:
		if ds.NumClasses < 2 {
			return nil, nil, rep, fmt.Errorf("faultinject: cannot mislabel dataset %q with %d class(es); a wrong label needs at least 2",
				ds.Name, ds.NumClasses)
		}
		out := ds.Clone()
		for _, idx := range affected {
			// Uniform over the K-1 wrong classes.
			wrong := in.rng.IntN(ds.NumClasses - 1)
			if wrong >= out.Labels[idx] {
				wrong++
			}
			out.Labels[idx] = wrong
		}
		rep.SizeAfter = out.Len()
		return out, protected, rep, nil

	case Repeat:
		// Duplicate the chosen rows, appending them at the end.
		indices := make([]int, 0, ds.Len()+count)
		for i := 0; i < ds.Len(); i++ {
			indices = append(indices, i)
		}
		indices = append(indices, affected...)
		out := ds.Subset(indices)
		// Appended duplicates of protected rows cannot exist (protected rows
		// are never chosen), so the protected map carries over unchanged.
		rep.SizeAfter = out.Len()
		return out, protected, rep, nil

	case Remove:
		removed := make(map[int]bool, count)
		for _, idx := range affected {
			removed[idx] = true
		}
		keep := make([]int, 0, ds.Len()-count)
		newProtected := make(map[int]bool)
		for i := 0; i < ds.Len(); i++ {
			if removed[i] {
				continue
			}
			if protected[i] {
				newProtected[len(keep)] = true
			}
			keep = append(keep, i)
		}
		out := ds.Subset(keep)
		rep.SizeAfter = out.Len()
		return out, newProtected, rep, nil

	default:
		return nil, nil, rep, fmt.Errorf("faultinject: unreachable fault type %d", int(spec.Type))
	}
}

// MislabelRate is a convenience for the most common single-step injection.
func MislabelRate(ds *data.Dataset, rate float64, rng *xrand.RNG) (*data.Dataset, Report, error) {
	out, reps, err := New(rng).Inject(ds, Spec{Type: Mislabel, Rate: rate})
	if err != nil {
		return nil, Report{}, err
	}
	return out, reps[0], nil
}
