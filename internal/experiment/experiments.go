package experiment

import (
	"fmt"
	"time"

	"tdfm/internal/faultinject"
	"tdfm/internal/metrics"
	"tdfm/internal/models"
)

// StudyRates are the paper's three fault percentages.
func StudyRates() []float64 { return []float64{0.1, 0.3, 0.5} }

// FigureModels are the four models the paper's figures show panels for.
func FigureModels() []string {
	return []string{models.ResNet50, models.VGG16, models.ConvNet, models.MobileNet}
}

// TechniquesFor returns the study techniques applicable to a fault type:
// label correction only acts on mislabelling (§IV-C: "We do not run label
// correction on fault types other than mislabelling since label correction
// has no effect on them").
func TechniquesFor(ft faultinject.Type) []string {
	if ft == faultinject.Mislabel {
		return []string{"base", "ls", "lc", "rl", "kd", "ens"}
	}
	return []string{"base", "ls", "rl", "kd", "ens"}
}

// Panel is one sub-figure: AD of every technique at every fault rate for a
// fixed (dataset, model, fault type).
type Panel struct {
	Dataset   string
	Arch      string
	FaultType faultinject.Type
	Rates     []float64
	// Cells maps technique → rate → measured cell.
	Cells map[string]map[float64]Cell
}

// Techniques returns the panel's technique order.
func (p *Panel) Techniques() []string { return TechniquesFor(p.FaultType) }

// panelCells lists every cell a figure panel measures.
func (r *Runner) panelCells(ds, arch string, ft faultinject.Type, rates []float64) []cellReq {
	var cells []cellReq
	for _, tech := range TechniquesFor(ft) {
		for _, rate := range rates {
			cells = append(cells, r.measureCells(ds, tech, arch, []FaultSpec{{Type: ft, Rate: rate}})...)
		}
	}
	return cells
}

// RunPanel measures one figure panel.
func (r *Runner) RunPanel(ds, arch string, ft faultinject.Type, rates []float64) (*Panel, error) {
	p := &Panel{
		Dataset: ds, Arch: arch, FaultType: ft,
		Rates: rates,
		Cells: make(map[string]map[float64]Cell),
	}
	r.warm(r.panelCells(ds, arch, ft, rates))
	for _, tech := range p.Techniques() {
		p.Cells[tech] = make(map[float64]Cell)
		for _, rate := range rates {
			cell, err := r.MeasureAD(ds, tech, arch, []FaultSpec{{Type: ft, Rate: rate}})
			if err != nil {
				return nil, err
			}
			p.Cells[tech][rate] = cell
		}
	}
	return p, nil
}

// Figure3Result reproduces Fig. 3: AD across the four figure models on
// GTSRB for one fault type.
type Figure3Result struct {
	FaultType faultinject.Type
	Panels    []*Panel
}

// Figure3 runs the Fig. 3 experiment. archs and rates default to the
// paper's when nil.
func (r *Runner) Figure3(ft faultinject.Type, archs []string, rates []float64) (*Figure3Result, error) {
	if archs == nil {
		archs = FigureModels()
	}
	if rates == nil {
		rates = StudyRates()
	}
	// One plan for the whole figure (see warm): no barrier between panels.
	// The panels then read the memo cache.
	var cells []cellReq
	for _, arch := range archs {
		cells = append(cells, r.panelCells("gtsrblike", arch, ft, rates)...)
	}
	r.warm(cells)
	out := &Figure3Result{FaultType: ft}
	for _, arch := range archs {
		p, err := r.RunPanel("gtsrblike", arch, ft, rates)
		if err != nil {
			return nil, err
		}
		out.Panels = append(out.Panels, p)
	}
	return out, nil
}

// Figure4Result reproduces Fig. 4: AD across the three datasets for a fixed
// model and fault type (ResNet50/mislabelling on the left column of the
// paper's figure, MobileNet/repetition on the right).
type Figure4Result struct {
	Arch      string
	FaultType faultinject.Type
	Panels    []*Panel
}

// Figure4 runs the Fig. 4 experiment for one column. datasets and rates
// default to the paper's when nil.
func (r *Runner) Figure4(arch string, ft faultinject.Type, datasets []string, rates []float64) (*Figure4Result, error) {
	if datasets == nil {
		datasets = DatasetNames()
	}
	if rates == nil {
		rates = StudyRates()
	}
	var cells []cellReq
	for _, ds := range datasets {
		cells = append(cells, r.panelCells(ds, arch, ft, rates)...)
	}
	r.warm(cells) // one plan for the figure, as in Figure3
	out := &Figure4Result{Arch: arch, FaultType: ft}
	for _, ds := range datasets {
		p, err := r.RunPanel(ds, arch, ft, rates)
		if err != nil {
			return nil, err
		}
		out.Panels = append(out.Panels, p)
	}
	return out, nil
}

// Table4Result reproduces Table IV: golden-model accuracy (no fault
// injection) per model, dataset, and technique.
type Table4Result struct {
	Models     []string
	Datasets   []string
	Techniques []string
	// Acc maps model → dataset → technique → accuracy summary.
	Acc map[string]map[string]map[string]metrics.Summary
}

// Table4 measures baseline accuracies without fault injection. models and
// datasets default to the paper's Table IV selection when nil.
func (r *Runner) Table4(archs, datasets []string) (*Table4Result, error) {
	if archs == nil {
		archs = FigureModels()
	}
	if datasets == nil {
		datasets = DatasetNames()
	}
	res := &Table4Result{
		Models:     archs,
		Datasets:   datasets,
		Techniques: TechniquesFor(faultinject.Mislabel),
		Acc:        make(map[string]map[string]map[string]metrics.Summary),
	}
	var cells []cellReq
	for _, arch := range archs {
		for _, ds := range datasets {
			for _, tech := range res.Techniques {
				for rep := 0; rep < r.Reps; rep++ {
					cells = append(cells, cellReq{ds: ds, tech: tech, arch: arch, rep: rep})
				}
			}
		}
	}
	r.warm(cells)
	for _, arch := range archs {
		res.Acc[arch] = make(map[string]map[string]metrics.Summary)
		for _, ds := range datasets {
			res.Acc[arch][ds] = make(map[string]metrics.Summary)
			for _, tech := range res.Techniques {
				s, err := r.GoldenAccuracy(ds, tech, arch)
				if err != nil {
					return nil, err
				}
				res.Acc[arch][ds][tech] = s
			}
		}
	}
	return res, nil
}

// MotivatingResult reproduces the §II / §III-D example: ResNet50 on the
// Pneumonia stand-in with 10% mislabelling.
type MotivatingResult struct {
	GoldenAcc metrics.Summary
	FaultyAcc metrics.Summary // unprotected baseline on faulty data
	// TechniqueAD maps technique → AD summary (the §III-D numbers).
	TechniqueAD map[string]metrics.Summary
}

// Motivating runs the motivating example.
func (r *Runner) Motivating() (*MotivatingResult, error) {
	const ds, arch = "pneumonialike", "resnet50"
	specs := []FaultSpec{{Type: faultinject.Mislabel, Rate: 0.1}}
	golden, err := r.GoldenAccuracy(ds, "base", arch)
	if err != nil {
		return nil, err
	}
	out := &MotivatingResult{GoldenAcc: golden, TechniqueAD: make(map[string]metrics.Summary)}
	var cells []cellReq
	for _, tech := range TechniquesFor(faultinject.Mislabel) {
		cells = append(cells, r.measureCells(ds, tech, arch, specs)...)
	}
	r.warm(cells)
	for _, tech := range TechniquesFor(faultinject.Mislabel) {
		cell, err := r.MeasureAD(ds, tech, arch, specs)
		if err != nil {
			return nil, err
		}
		out.TechniqueAD[tech] = cell.AD
		if tech == "base" {
			out.FaultyAcc = cell.Accuracy
		}
	}
	return out, nil
}

// CombinedComparison is one §IV-C check: the AD of a combined fault
// injection versus the dominant single fault type, with the CI-overlap
// verdict the paper uses for "statistically similar".
type CombinedComparison struct {
	Combined   []FaultSpec
	Single     []FaultSpec
	CombinedAD metrics.Summary
	SingleAD   metrics.Summary
	Similar    bool
}

// CombinedFaults reproduces the §IV-C combined-fault study on the given
// dataset and model (the paper reports GTSRB).
func (r *Runner) CombinedFaults(ds, arch string, rate float64) ([]CombinedComparison, error) {
	mk := func(t faultinject.Type) FaultSpec { return FaultSpec{Type: t, Rate: rate} }
	pairs := []struct {
		combined []FaultSpec
		single   []FaultSpec
	}{
		{[]FaultSpec{mk(faultinject.Mislabel), mk(faultinject.Remove)}, []FaultSpec{mk(faultinject.Mislabel)}},
		{[]FaultSpec{mk(faultinject.Mislabel), mk(faultinject.Repeat)}, []FaultSpec{mk(faultinject.Mislabel)}},
		{[]FaultSpec{mk(faultinject.Remove), mk(faultinject.Repeat)}, []FaultSpec{mk(faultinject.Repeat)}},
	}
	var cells []cellReq
	for _, p := range pairs {
		cells = append(cells, r.measureCells(ds, "base", arch, p.combined)...)
		cells = append(cells, r.measureCells(ds, "base", arch, p.single)...)
	}
	r.warm(cells)
	out := make([]CombinedComparison, 0, len(pairs))
	for _, p := range pairs {
		comb, err := r.MeasureAD(ds, "base", arch, p.combined)
		if err != nil {
			return nil, err
		}
		single, err := r.MeasureAD(ds, "base", arch, p.single)
		if err != nil {
			return nil, err
		}
		out = append(out, CombinedComparison{
			Combined:   p.combined,
			Single:     p.single,
			CombinedAD: comb.AD,
			SingleAD:   single.AD,
			Similar:    metrics.OverlapCI(comb.AD, single.AD),
		})
	}
	return out, nil
}

// OverheadRow is one technique's §IV-E overhead measurement.
type OverheadRow struct {
	Technique string
	// TrainOverhead is wall-clock training time divided by the baseline's
	// on the same configuration.
	TrainOverhead float64
	// InferenceOverhead is the number of models consulted per prediction
	// relative to the baseline's single model.
	InferenceOverhead float64
	TrainTime         time.Duration
}

// Overhead measures training and inference overheads of each technique on
// the given dataset/model with the given fault injection. Because overheads
// need uncached wall-clock timings, the measurement runs on an internal
// fresh runner derived from r's configuration (same scale/seed/reps/workers,
// empty memo), so Overhead is safe to call after other experiments have
// warmed r's cache. With Workers > 1 the per-row timings include pool
// contention; the TrainOverhead ratio is against a baseline measured under
// the same contention.
func (r *Runner) Overhead(ds, arch string, specs []FaultSpec) ([]OverheadRow, error) {
	return overheadGrid(r.freshOverheadRunner(), ds, arch, specs)
}

// SpeedupReport is E11's wall-clock comparison between the serial
// (Workers=1) and parallel schedules of the same overhead grid.
type SpeedupReport struct {
	Workers  int
	Serial   time.Duration
	Parallel time.Duration
}

// Ratio is the serial/parallel wall-clock speedup.
func (s SpeedupReport) Ratio() float64 {
	if s.Parallel <= 0 {
		return 0
	}
	return float64(s.Serial) / float64(s.Parallel)
}

// OverheadWithSpeedup runs the overhead grid on the runner's worker pool
// and, when more than one worker is configured, re-runs the identical grid
// serially to report the end-to-end wall-clock speedup. The returned rows
// come from the serial schedule when both run (contention-free per-row
// timings); the report is nil when Workers <= 1.
func (r *Runner) OverheadWithSpeedup(ds, arch string, specs []FaultSpec) ([]OverheadRow, *SpeedupReport, error) {
	par := r.freshOverheadRunner()
	start := time.Now() //tdfm:allow nodeterminism wall-clock IS the measurement here (§IV-E overhead timing)
	rows, err := overheadGrid(par, ds, arch, specs)
	if err != nil {
		return nil, nil, err
	}
	parDur := time.Since(start) //tdfm:allow nodeterminism wall-clock IS the measurement here (§IV-E overhead timing)
	if par.workers() <= 1 {
		return rows, nil, nil
	}
	serial := r.freshOverheadRunner()
	serial.Workers = 1
	start = time.Now() //tdfm:allow nodeterminism wall-clock IS the measurement here (§IV-E overhead timing)
	rows, err = overheadGrid(serial, ds, arch, specs)
	if err != nil {
		return nil, nil, err
	}
	serialDur := time.Since(start) //tdfm:allow nodeterminism wall-clock IS the measurement here (§IV-E overhead timing)
	return rows, &SpeedupReport{Workers: par.workers(), Serial: serialDur, Parallel: parDur}, nil
}

// freshOverheadRunner clones r's configuration with an empty memo cache.
func (r *Runner) freshOverheadRunner() *Runner {
	fresh := NewRunner(r.Scale, r.Seed, r.Reps)
	fresh.CleanFrac = r.CleanFrac
	fresh.EpochOverride = r.EpochOverride
	fresh.WidthMult = r.WidthMult
	fresh.Workers = r.Workers
	fresh.Retries = r.Retries
	fresh.CellTimeout = r.CellTimeout
	fresh.Ctx = r.Ctx
	return fresh
}

func overheadGrid(r *Runner, ds, arch string, specs []FaultSpec) ([]OverheadRow, error) {
	var cells []cellReq
	for _, tech := range TechniquesFor(faultinject.Mislabel) {
		cells = append(cells, r.measureCells(ds, tech, arch, specs)...)
	}
	r.warm(cells)
	baseCell, err := r.MeasureAD(ds, "base", arch, specs)
	if err != nil {
		return nil, err
	}
	if baseCell.TrainDur <= 0 {
		return nil, fmt.Errorf("experiment: overhead measured zero baseline training time")
	}
	rows := make([]OverheadRow, 0, 6)
	for _, tech := range TechniquesFor(faultinject.Mislabel) {
		cell := baseCell
		if tech != "base" {
			cell, err = r.MeasureAD(ds, tech, arch, specs)
			if err != nil {
				return nil, err
			}
		}
		t, err := techInferenceModels(tech)
		if err != nil {
			return nil, err
		}
		rows = append(rows, OverheadRow{
			Technique:         tech,
			TrainOverhead:     float64(cell.TrainDur) / float64(baseCell.TrainDur),
			InferenceOverhead: float64(t),
			TrainTime:         cell.TrainDur,
		})
	}
	return rows, nil
}

func techInferenceModels(tech string) (int, error) {
	t, err := techniqueByName(tech)
	if err != nil {
		return 0, err
	}
	return t.ModelsAtInference(), nil
}
