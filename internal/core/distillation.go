package core

import (
	"tdfm/internal/loss"
	"tdfm/internal/tensor"
	"tdfm/internal/xrand"
)

// KnowledgeDistillation is the study's Knowledge Distillation
// representative: self distillation (§III-B4). A teacher with the same
// architecture as the student is trained first with cross entropy; the
// student is then trained on a mixture of the hard labels and the teacher's
// temperature-softened predictions:
//
//	L = (1-α)·CE(student, labels) + α·T²·KL(teacher_T ‖ student_T)
//
// At low mislabelling rates the teacher's soft targets act as a learned
// label smoother; at high rates the student inherits the teacher's fitted
// noise — the paper's "garbage in, garbage out" effect.
type KnowledgeDistillation struct {
	Alpha float64 // weight of the distilled term
	T     float64 // softmax temperature
}

var _ Technique = KnowledgeDistillation{}

// Name implements Technique.
func (KnowledgeDistillation) Name() string { return "kd" }

// Description implements Technique.
func (KnowledgeDistillation) Description() string {
	return "self distillation (teacher = student arch)"
}

// ModelsTrained implements Technique. Both the teacher and the student are
// trained; the paper reports ≈1.5× training overhead because the student
// converges faster than the teacher.
func (KnowledgeDistillation) ModelsTrained() int { return 2 }

// ModelsAtInference implements Technique. Only the student serves.
func (KnowledgeDistillation) ModelsAtInference() int { return 1 }

// Train fits the teacher, then distills into a freshly initialized student.
func (k KnowledgeDistillation) Train(cfg Config, ts TrainSet, rng *xrand.RNG) (Classifier, error) {
	alpha, temp := k.Alpha, k.T
	if alpha <= 0 {
		alpha = 0.7
	}
	if temp <= 0 {
		temp = 3
	}

	// Teacher: plain cross-entropy training.
	_, teacher, err := cfg.buildFor(ts.Data, rng.Split("teacher-init"))
	if err != nil {
		return nil, err
	}
	if err := trainLoop(teacher.net, ts.Data, loss.CrossEntropy{}, cfg, rng.Split("teacher-train"), nil, nil); err != nil {
		return nil, err
	}
	// The student's training refills the teacher's arena with eval
	// forwards; drop those buffers too once the student is trained.
	if a := teacher.net.Arena(); a != nil {
		defer a.Release()
	}

	// Student: same architecture, fresh initialization (self distillation).
	student, bm, err := cfg.buildFor(ts.Data, rng.Split("student-init"))
	if err != nil {
		return nil, err
	}
	kd := loss.Distillation{Alpha: alpha, T: temp}
	kdLoss := distillLoss{kd: kd, teacher: teacher, temp: temp, classes: ts.Data.NumClasses}
	if err := trainLoop(bm.net, ts.Data, &kdLoss, cfg, rng.Split("student-train"),
		kdLoss.hookTargets(ts.Data.NumClasses), nil); err != nil {
		return nil, err
	}
	return student, nil
}

// distillLoss adapts the distillation loss to the Loss interface by
// querying the teacher for softened probabilities per batch. The trainLoop
// passes one-hot targets built from the batch labels; the teacher is
// consulted on the same inputs via the closure set in Train.
type distillLoss struct {
	kd      loss.Distillation
	teacher *builtModel
	temp    float64
	classes int

	// batchX is set by the batchTargets hook before each Forward.
	batchX *tensor.Tensor
}

var _ loss.Loss = (*distillLoss)(nil)

// Name implements loss.Loss.
func (d *distillLoss) Name() string { return d.kd.Name() }

// Forward computes the combined distillation loss. It needs the batch
// inputs to query the teacher; trainLoop arranges for targets to carry the
// batch via SetBatch (see below), so Forward re-derives teacher probs here.
func (d *distillLoss) Forward(logits, targets *tensor.Tensor) (float64, *tensor.Tensor) {
	if d.batchX == nil {
		// Without batch context fall back to plain CE (should not happen in
		// the training loop, but keeps the type safe to use standalone).
		return loss.CrossEntropy{}.Forward(logits, targets)
	}
	teacherLogits := d.teacherLogits(d.batchX)
	teacherProbs := loss.SoftmaxT(teacherLogits, d.temp)
	// The softened probabilities are fresh storage, so the teacher's
	// activations (including teacherLogits) can recycle immediately.
	if a := d.teacher.net.Arena(); a != nil {
		a.Reset()
	}
	return d.kd.ForwardKD(logits, targets, teacherProbs)
}

// teacherLogits runs the teacher network in inference mode.
func (d *distillLoss) teacherLogits(x *tensor.Tensor) *tensor.Tensor {
	return d.teacher.net.Forward(x, false)
}

// hookTargets returns a batchTargets function that records the batch for
// Forward and emits one-hot labels.
func (d *distillLoss) hookTargets(numClasses int) batchTargets {
	return func(bx *tensor.Tensor, labels []int) *tensor.Tensor {
		d.batchX = bx
		oh := tensor.New(len(labels), numClasses)
		for i, y := range labels {
			oh.Set(1, i, y)
		}
		return oh
	}
}
