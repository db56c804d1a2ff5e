// Package loss implements the loss functions used by the TDFM study:
// cross entropy (the baseline), smoothed cross entropy and label relaxation
// (the Label Smoothing technique), normalized and reverse cross entropy and
// their Active-Passive combination (the Robust Loss technique), and the
// temperature-softened distillation loss (the Knowledge Distillation
// technique).
//
// All losses consume raw logits of shape [N, K] and soft targets of shape
// [N, K] (one-hot rows for hard labels), and return the mean loss over the
// batch together with the gradient of that mean with respect to the logits.
// Folding the softmax into each loss keeps the gradients numerically stable.
package loss

import (
	"fmt"
	"math"

	"tdfm/internal/tensor"
)

// Loss maps (logits, targets) to a scalar and its logits gradient.
type Loss interface {
	// Forward returns the mean loss over the batch and dL/dlogits.
	Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor)
	Name() string
}

func checkPair(logits, targets *tensor.Tensor, name string) (n, k int) {
	if logits.Dims() != 2 || targets.Dims() != 2 || !logits.SameShape(targets) {
		panic(fmt.Sprintf("loss: %s needs matching [N,K] logits/targets, got %v and %v",
			name, logits.Shape(), targets.Shape()))
	}
	return logits.Dim(0), logits.Dim(1)
}

// Softmax computes row-wise softmax of a [N, K] tensor with the max-shift
// trick for numerical stability.
func Softmax(logits *tensor.Tensor) *tensor.Tensor {
	if logits.Dims() != 2 {
		panic(fmt.Sprintf("loss: Softmax needs [N,K], got %v", logits.Shape()))
	}
	n, k := logits.Dim(0), logits.Dim(1)
	out := tensor.New(n, k)
	ld, od := logits.Data(), out.Data()
	for r := 0; r < n; r++ {
		row := ld[r*k : (r+1)*k]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		s := 0.0
		orow := od[r*k : (r+1)*k]
		for i, v := range row {
			e := math.Exp(v - m)
			orow[i] = e
			s += e
		}
		inv := 1 / s
		for i := range orow {
			orow[i] *= inv
		}
	}
	return out
}

// SoftmaxT computes row-wise softmax at temperature T (T > 1 softens the
// distribution, as used by knowledge distillation).
func SoftmaxT(logits *tensor.Tensor, t float64) *tensor.Tensor {
	if t <= 0 {
		panic("loss: SoftmaxT needs positive temperature")
	}
	return Softmax(logits.Scale(1 / t))
}

// LogSumExp returns the row-wise log-sum-exp of a [N, K] tensor.
func LogSumExp(logits *tensor.Tensor) []float64 {
	n, k := logits.Dim(0), logits.Dim(1)
	out := make([]float64, n)
	ld := logits.Data()
	for r := 0; r < n; r++ {
		row := ld[r*k : (r+1)*k]
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		s := 0.0
		for _, v := range row {
			s += math.Exp(v - m)
		}
		out[r] = m + math.Log(s)
	}
	return out
}

// CrossEntropy is the standard softmax cross-entropy loss, the paper's
// baseline (and the loss the paper notes is not robust to label noise).
type CrossEntropy struct{}

var _ Loss = CrossEntropy{}

// Name implements Loss.
func (CrossEntropy) Name() string { return "cross-entropy" }

// Forward computes mean CE and gradient (softmax(z) - y)/N.
func (CrossEntropy) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, targets, "CrossEntropy")
	probs := Softmax(logits)
	lse := LogSumExp(logits)
	ld, td, pd := logits.Data(), targets.Data(), probs.Data()
	total := 0.0
	grad := tensor.New(n, k)
	gd := grad.Data()
	invN := 1 / float64(n)
	for r := 0; r < n; r++ {
		for c := 0; c < k; c++ {
			i := r*k + c
			y := td[i]
			if y != 0 {
				total += float64(y * (lse[r] - ld[i]))
			}
			gd[i] = (pd[i] - y) * invN
		}
	}
	return total * invN, grad
}

// SmoothedCE applies classic label smoothing with coefficient Alpha before
// cross entropy: q = (1-α)·y + α/K.
type SmoothedCE struct {
	Alpha float64
}

var _ Loss = SmoothedCE{}

// Name implements Loss.
func (s SmoothedCE) Name() string { return fmt.Sprintf("smoothed-ce(α=%g)", s.Alpha) }

// Smooth returns the smoothed version of the targets.
func (s SmoothedCE) Smooth(targets *tensor.Tensor) *tensor.Tensor {
	k := targets.Dim(1)
	uniform := s.Alpha / float64(k)
	out := targets.Scale(1 - s.Alpha)
	out.ApplyIn(func(v float64) float64 { return v + uniform })
	return out
}

// Forward smooths the targets and defers to cross entropy.
func (s SmoothedCE) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	checkPair(logits, targets, "SmoothedCE")
	return CrossEntropy{}.Forward(logits, s.Smooth(targets))
}

// LabelRelaxation implements the representative Label Smoothing technique of
// the paper (Lienen & Hüllermeier, AAAI'21). Instead of a fixed smoothed
// target, the target is the projection of the model's own prediction onto
// the credal set of distributions that give the labelled class at least
// probability 1-α:
//
//   - if p_y ≥ 1-α the prediction is consistent with the relaxed label and
//     the loss (and gradient) is zero;
//   - otherwise the loss is the KL divergence from the projected target
//     ŷ (ŷ_y = 1-α, ŷ_j ∝ α·p_j for j ≠ y) to p, whose logits gradient is
//     (p - ŷ)/N with ŷ treated as constant.
//
// This reduces the distance between correct and incorrect encodings exactly
// as §III-B1 describes.
type LabelRelaxation struct {
	Alpha float64
}

var _ Loss = LabelRelaxation{}

// Name implements Loss.
func (l LabelRelaxation) Name() string { return fmt.Sprintf("label-relaxation(α=%g)", l.Alpha) }

// Forward computes the relaxed loss. Targets must be one-hot rows.
func (l LabelRelaxation) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, targets, "LabelRelaxation")
	probs := Softmax(logits)
	pd, td := probs.Data(), targets.Data()
	grad := tensor.New(n, k)
	gd := grad.Data()
	total := 0.0
	invN := 1 / float64(n)
	const eps = 1e-12
	for r := 0; r < n; r++ {
		// Locate the labelled class (row argmax of the one-hot target).
		y, best := 0, td[r*k]
		for c := 1; c < k; c++ {
			if td[r*k+c] > best {
				y, best = c, td[r*k+c]
			}
		}
		py := pd[r*k+y]
		if py >= 1-l.Alpha {
			continue // credal constraint satisfied: zero loss, zero gradient
		}
		// Project p onto the credal set boundary.
		rest := 1 - py // probability mass on non-target classes
		for c := 0; c < k; c++ {
			i := r*k + c
			var yhat float64
			if c == y {
				yhat = 1 - l.Alpha
			} else {
				yhat = l.Alpha * pd[i] / math.Max(rest, eps)
			}
			if yhat > 0 {
				total += float64(yhat * math.Log(math.Max(yhat, eps)/math.Max(pd[i], eps)))
			}
			gd[i] = (pd[i] - yhat) * invN
		}
	}
	return total * invN, grad
}

// NCE is Normalized Cross Entropy (Ma et al., ICML'20): CE divided by the
// sum of CEs against every class, which is provably robust to symmetric
// label noise. Used as the "active" part of the Active-Passive loss.
type NCE struct{}

var _ Loss = NCE{}

// Name implements Loss.
func (NCE) Name() string { return "nce" }

// Forward computes mean NCE and its exact logits gradient.
func (NCE) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, targets, "NCE")
	probs := Softmax(logits)
	lse := LogSumExp(logits)
	ld, td, pd := logits.Data(), targets.Data(), probs.Data()
	grad := tensor.New(n, k)
	gd := grad.Data()
	total := 0.0
	invN := 1 / float64(n)
	for r := 0; r < n; r++ {
		// u = -Σ_c y_c log p_c ; v = -Σ_j log p_j
		u, v := 0.0, 0.0
		for c := 0; c < k; c++ {
			i := r*k + c
			logp := ld[i] - lse[r]
			u -= float64(td[i] * logp)
			v -= logp
		}
		total += u / v
		// dL/dz_i = (p_i - y_i)/v - u·(K·p_i - 1)/v².
		for c := 0; c < k; c++ {
			i := r*k + c
			gd[i] = ((pd[i]-td[i])/v - u*(float64(float64(k)*pd[i])-1)/(v*v)) * invN
		}
	}
	return total * invN, grad
}

// RCE is Reverse Cross Entropy: -Σ p_c · log y_c with log 0 clipped to
// ClipA (a negative constant, -4 in Ma et al.). Robust to label noise; used
// as the "passive" part of the Active-Passive loss.
type RCE struct {
	ClipA float64 // clip value for log 0; must be negative
}

var _ Loss = RCE{}

// Name implements Loss.
func (r RCE) Name() string { return fmt.Sprintf("rce(A=%g)", r.clip()) }

func (r RCE) clip() float64 {
	if r.ClipA >= 0 {
		return -4
	}
	return r.ClipA
}

// Forward computes mean RCE and its logits gradient.
func (r RCE) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, targets, "RCE")
	a := r.clip()
	probs := Softmax(logits)
	td, pd := targets.Data(), probs.Data()
	grad := tensor.New(n, k)
	gd := grad.Data()
	total := 0.0
	invN := 1 / float64(n)
	const eps = 1e-7
	for row := 0; row < n; row++ {
		// logy_c = log y_c, clipped to A where y_c ≈ 0.
		// L = -Σ_c p_c logy_c ; dL/dz_i = -p_i (logy_i - Σ_c p_c logy_c).
		dot := 0.0
		for c := 0; c < k; c++ {
			i := row*k + c
			ly := a
			if td[i] > eps {
				ly = math.Log(td[i])
			}
			dot += float64(pd[i] * ly)
		}
		total += -dot
		for c := 0; c < k; c++ {
			i := row*k + c
			ly := a
			if td[i] > eps {
				ly = math.Log(td[i])
			}
			gd[i] = -pd[i] * (ly - dot) * invN
		}
	}
	return total * invN, grad
}

// ActivePassive is the Active-Passive Loss of the Robust Loss technique
// (§III-B3): L = α·NCE + β·RCE. The active term fits the target class; the
// passive term counteracts the underfitting the active term induces.
type ActivePassive struct {
	Alpha, Beta float64
	Active      Loss
	Passive     Loss
}

var _ Loss = (*ActivePassive)(nil)

// NewActivePassive returns the paper's NCE+RCE instantiation with the given
// weights.
func NewActivePassive(alpha, beta float64) *ActivePassive {
	return &ActivePassive{Alpha: alpha, Beta: beta, Active: NCE{}, Passive: RCE{}}
}

// Name implements Loss.
func (a *ActivePassive) Name() string {
	return fmt.Sprintf("apl(α=%g·%s + β=%g·%s)", a.Alpha, a.Active.Name(), a.Beta, a.Passive.Name())
}

// Forward computes the weighted sum of the active and passive losses.
func (a *ActivePassive) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	la, ga := a.Active.Forward(logits, targets)
	lp, gp := a.Passive.Forward(logits, targets)
	grad := ga.Scale(a.Alpha)
	grad.AddScaledIn(a.Beta, gp)
	return float64(a.Alpha*la) + float64(a.Beta*lp), grad
}

// Distillation is the knowledge-distillation student loss (§III-B4):
//
//	L = (1-α)·CE(student, hard labels) + α·T²·KL(teacher_T ‖ student_T)
//
// where the subscript T denotes temperature-softened softmax. The teacher's
// softened probabilities for the current batch must be supplied alongside
// the hard targets via ForwardKD; the plain Forward method (required by the
// Loss interface) treats the soft targets as absent and reduces to CE,
// which is the teacher's own training mode.
type Distillation struct {
	Alpha float64 // weight on the distilled term
	T     float64 // temperature (> 1 softens)
}

var _ Loss = Distillation{}

// Name implements Loss.
func (d Distillation) Name() string { return fmt.Sprintf("distillation(α=%g,T=%g)", d.Alpha, d.T) }

// Forward without teacher probabilities reduces to plain cross entropy.
func (d Distillation) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	return CrossEntropy{}.Forward(logits, targets)
}

// ForwardKD computes the full distillation loss given the teacher's
// temperature-softened probabilities for the batch.
func (d Distillation) ForwardKD(logits, hardTargets, teacherProbsT *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, hardTargets, "Distillation")
	if !teacherProbsT.SameShape(logits) {
		panic(fmt.Sprintf("loss: teacher probs shape %v != logits shape %v",
			teacherProbsT.Shape(), logits.Shape()))
	}
	ceLoss, ceGrad := CrossEntropy{}.Forward(logits, hardTargets)

	studentT := SoftmaxT(logits, d.T)
	sd, tdp := studentT.Data(), teacherProbsT.Data()
	kl := 0.0
	const eps = 1e-12
	for i := range sd {
		if tdp[i] > eps {
			kl += float64(tdp[i] * math.Log(tdp[i]/math.Max(sd[i], eps)))
		}
	}
	invN := 1 / float64(n)
	kl *= invN
	// d/dz of T²·KL(teacher_T ‖ student_T) = T·(student_T - teacher_T).
	grad := tensor.New(n, k)
	gd := grad.Data()
	for i := range gd {
		gd[i] = float64(d.Alpha*d.T*(sd[i]-tdp[i])*invN) + float64((1-d.Alpha)*ceGrad.Data()[i])
	}
	return float64((1-d.Alpha)*ceLoss) + float64(d.Alpha*d.T*d.T*kl), grad
}

// MAE is the mean absolute error over probability vectors, another
// noise-robust loss kept for ablation experiments.
type MAE struct{}

var _ Loss = MAE{}

// Name implements Loss.
func (MAE) Name() string { return "mae" }

// Forward computes mean |p - y| and its logits gradient.
func (MAE) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	n, k := checkPair(logits, targets, "MAE")
	probs := Softmax(logits)
	pd, td := probs.Data(), targets.Data()
	grad := tensor.New(n, k)
	gd := grad.Data()
	total := 0.0
	invN := 1 / float64(n)
	for r := 0; r < n; r++ {
		// s_i = sign(p_i - y_i); dL/dz_j = p_j(s_j - Σ_i s_i p_i).
		dot := 0.0
		for c := 0; c < k; c++ {
			i := r*k + c
			d := pd[i] - td[i]
			total += math.Abs(d)
			dot += float64(sign(d) * pd[i])
		}
		for c := 0; c < k; c++ {
			i := r*k + c
			gd[i] = pd[i] * (sign(pd[i]-td[i]) - dot) * invN
		}
	}
	return total * invN, grad
}

func sign(v float64) float64 {
	switch {
	case v > 0:
		return 1
	case v < 0:
		return -1
	default:
		return 0
	}
}
