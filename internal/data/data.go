// Package data defines the labelled-dataset container shared by the dataset
// generators, the fault injector, and the training loops, together with
// batching, shuffling, splitting, and label-encoding utilities.
//
// A Dataset owns its storage. Operations that derive new datasets (Subset,
// Split, Clone, injector transforms) deep-copy the affected rows so that
// faults injected into one copy can never alias another — the study's
// golden/faulty protocol depends on this isolation.
package data

import (
	"fmt"

	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// Dataset is a labelled image-classification dataset with inputs of shape
// [N, C, H, W] and integer labels in [0, NumClasses).
type Dataset struct {
	X          *tensor.Tensor
	Labels     []int
	NumClasses int
	Name       string
}

// New returns a dataset wrapping x and labels. The tensors and slices are
// used directly (ownership transfers to the dataset); callers must not
// retain references.
func New(name string, x *tensor.Tensor, labels []int, numClasses int) (*Dataset, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("data: inputs must be [N,C,H,W], got %v", x.Shape())
	}
	if x.Dim(0) != len(labels) {
		return nil, fmt.Errorf("data: %d inputs but %d labels", x.Dim(0), len(labels))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("data: need at least 2 classes, got %d", numClasses)
	}
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			return nil, fmt.Errorf("data: label %d at index %d out of [0,%d)", y, i, numClasses)
		}
	}
	return &Dataset{X: x, Labels: labels, NumClasses: numClasses, Name: name}, nil
}

// MustNew is New that panics on error, for tests and generators with
// statically valid shapes.
func MustNew(name string, x *tensor.Tensor, labels []int, numClasses int) *Dataset {
	d, err := New(name, x, labels, numClasses)
	if err != nil {
		panic(err)
	}
	return d
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.Labels) }

// Channels, Height, Width return the image dimensions.
func (d *Dataset) Channels() int { return d.X.Dim(1) }

// Height returns the image height.
func (d *Dataset) Height() int { return d.X.Dim(2) }

// Width returns the image width.
func (d *Dataset) Width() int { return d.X.Dim(3) }

// sampleSize returns the number of scalars per example.
func (d *Dataset) sampleSize() int { return d.Channels() * d.Height() * d.Width() }

// Clone returns a deep copy.
func (d *Dataset) Clone() *Dataset {
	return &Dataset{
		X:          d.X.Clone(),
		Labels:     append([]int(nil), d.Labels...),
		NumClasses: d.NumClasses,
		Name:       d.Name,
	}
}

// Subset returns a deep copy of the examples at the given indices, in order.
func (d *Dataset) Subset(indices []int) *Dataset {
	ss := d.sampleSize()
	x := tensor.New(len(indices), d.Channels(), d.Height(), d.Width())
	labels := make([]int, len(indices))
	src, dst := d.X.Data(), x.Data()
	for row, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: Subset index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(dst[row*ss:(row+1)*ss], src[idx*ss:(idx+1)*ss])
		labels[row] = d.Labels[idx]
	}
	return &Dataset{X: x, Labels: labels, NumClasses: d.NumClasses, Name: d.Name}
}

// Split partitions the dataset into the examples at indices (first) and the
// rest (second), both deep copies.
func (d *Dataset) Split(indices []int) (in, out *Dataset) {
	chosen := make([]bool, d.Len())
	for _, idx := range indices {
		chosen[idx] = true
	}
	var rest []int
	for i := 0; i < d.Len(); i++ {
		if !chosen[i] {
			rest = append(rest, i)
		}
	}
	return d.Subset(indices), d.Subset(rest)
}

// Shuffled returns a deep copy with rows permuted by rng.
func (d *Dataset) Shuffled(rng *xrand.RNG) *Dataset {
	return d.Subset(rng.Perm(d.Len()))
}

// Batch returns rows [start, start+size) as a deep-copied input tensor and
// label slice, truncating at the end of the dataset.
func (d *Dataset) Batch(start, size int) (*tensor.Tensor, []int) {
	if start < 0 || start >= d.Len() {
		panic(fmt.Sprintf("data: Batch start %d out of range [0,%d)", start, d.Len()))
	}
	end := start + size
	if end > d.Len() {
		end = d.Len()
	}
	n := end - start
	ss := d.sampleSize()
	x := tensor.New(n, d.Channels(), d.Height(), d.Width())
	copy(x.Data(), d.X.Data()[start*ss:end*ss])
	labels := make([]int, n)
	copy(labels, d.Labels[start:end])
	return x, labels
}

// FillOneHot one-hot encodes labels into the zero-filled [len(labels), K]
// tensor dst and returns it. It lets training loops reuse arena storage
// for the per-batch target tensor instead of allocating one per batch.
func FillOneHot(dst *tensor.Tensor, labels []int) *tensor.Tensor {
	if dst.Dims() != 2 || dst.Dim(0) != len(labels) {
		panic(fmt.Sprintf("data: FillOneHot dst %v does not match %d labels", dst.Shape(), len(labels)))
	}
	numClasses := dst.Dim(1)
	d := dst.Data()
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			panic(fmt.Sprintf("data: OneHot label %d out of [0,%d)", y, numClasses))
		}
		d[i*numClasses+y] = 1
	}
	return dst
}

// OneHot encodes integer labels as one-hot rows of width numClasses.
func OneHot(labels []int, numClasses int) *tensor.Tensor {
	t := tensor.New(len(labels), numClasses)
	d := t.Data()
	for i, y := range labels {
		if y < 0 || y >= numClasses {
			panic(fmt.Sprintf("data: OneHot label %d out of [0,%d)", y, numClasses))
		}
		d[i*numClasses+y] = 1
	}
	return t
}

// ClassHistogram returns the number of examples per class.
func (d *Dataset) ClassHistogram() []int {
	h := make([]int, d.NumClasses)
	for _, y := range d.Labels {
		h[y]++
	}
	return h
}

// StratifiedIndices returns ⌈frac·N⌉ indices sampled so that each class is
// represented proportionally (used to reserve clean subsets for label
// correction). The returned indices are sorted by class then position.
func (d *Dataset) StratifiedIndices(frac float64, rng *xrand.RNG) []int {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("data: StratifiedIndices frac %v out of [0,1]", frac))
	}
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Labels {
		byClass[y] = append(byClass[y], i)
	}
	var out []int
	for _, idxs := range byClass {
		want := int(float64(float64(len(idxs))*frac) + 0.5)
		if want > len(idxs) {
			want = len(idxs)
		}
		chosen := rng.Choice(len(idxs), want)
		for _, c := range chosen {
			out = append(out, idxs[c])
		}
	}
	return out
}

// TrainTestSplit shuffles and partitions the dataset into a training set of
// trainFrac·N examples and a test set of the remainder.
func (d *Dataset) TrainTestSplit(trainFrac float64, rng *xrand.RNG) (train, test *Dataset) {
	if trainFrac <= 0 || trainFrac >= 1 {
		panic(fmt.Sprintf("data: TrainTestSplit frac %v out of (0,1)", trainFrac))
	}
	perm := rng.Perm(d.Len())
	nTrain := int(float64(d.Len()) * trainFrac)
	return d.Subset(perm[:nTrain]), d.Subset(perm[nTrain:])
}
