package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"tdfm/internal/models"
	"tdfm/internal/report"
	"tdfm/internal/survey"
)

// displayName maps internal dataset/technique identifiers to the labels the
// paper uses.
func displayName(id string) string {
	switch id {
	case "cifar10like":
		return "CIFAR-10*"
	case "gtsrblike":
		return "GTSRB*"
	case "pneumonialike":
		return "Pneumonia*"
	case "base":
		return "Base"
	case "ls":
		return "LS"
	case "lc":
		return "LC"
	case "rl":
		return "RL"
	case "kd":
		return "KD"
	case "ens":
		return "Ens"
	default:
		return id
	}
}

// RenderPanel writes one figure panel as bar groups per fault rate.
func RenderPanel(w io.Writer, p *Panel) {
	fmt.Fprintf(w, "%s, %s, %s faults — AD (lower is better)\n",
		displayName(p.Dataset), p.Arch, p.FaultType)
	for _, rate := range p.Rates {
		fmt.Fprintf(w, " %d%% faults:\n", int(float64(rate*100)+0.5))
		for _, tech := range p.Techniques() {
			cell := p.Cells[tech][rate]
			line := report.Bar(displayName(tech), cell.AD.Mean, cell.AD.CI95, 40)
			if cell.Failed > 0 {
				line += fmt.Sprintf("  [FAILED %d/%d reps]", cell.Failed, cell.Failed+cell.AD.N)
			}
			fmt.Fprintf(w, "  %s\n", line)
		}
	}
}

// RenderFigure3 writes the full Fig. 3 reproduction.
func (f *Figure3Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 3 (%s faults, GTSRB*): AD of TDFM techniques vs baseline\n\n", f.FaultType)
	for _, p := range f.Panels {
		RenderPanel(w, p)
		fmt.Fprintln(w)
	}
}

// Render writes the full Fig. 4 reproduction.
func (f *Figure4Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Figure 4 (%s, %s faults): AD across datasets\n\n", f.Arch, f.FaultType)
	for _, p := range f.Panels {
		RenderPanel(w, p)
		fmt.Fprintln(w)
	}
}

// Table returns the Fig. 3 / Fig. 4 data as a flat table (for CSV export).
func panelTable(title string, panels []*Panel) *report.Table {
	t := &report.Table{
		Title:   title,
		Headers: []string{"dataset", "model", "fault", "rate", "technique", "ad_mean", "ad_ci95", "acc_mean", "reps", "failed_reps"},
	}
	for _, p := range panels {
		for _, rate := range p.Rates {
			for _, tech := range p.Techniques() {
				cell := p.Cells[tech][rate]
				t.AddRow(p.Dataset, p.Arch, p.FaultType.String(),
					fmt.Sprintf("%g", rate), tech,
					fmt.Sprintf("%.4f", cell.AD.Mean),
					fmt.Sprintf("%.4f", cell.AD.CI95),
					fmt.Sprintf("%.4f", cell.Accuracy.Mean),
					fmt.Sprintf("%d", cell.AD.N),
					fmt.Sprintf("%d", cell.Failed))
			}
		}
	}
	return t
}

// Table flattens the figure for CSV export.
func (f *Figure3Result) Table() *report.Table {
	return panelTable(fmt.Sprintf("fig3-%s", f.FaultType), f.Panels)
}

// Table flattens the figure for CSV export.
func (f *Figure4Result) Table() *report.Table {
	return panelTable(fmt.Sprintf("fig4-%s-%s", f.Arch, f.FaultType), f.Panels)
}

// Table renders Table IV: golden accuracies per model/dataset/technique.
func (t4 *Table4Result) Table() *report.Table {
	t := &report.Table{
		Title:   "Table IV: model accuracies when trained without fault injection",
		Headers: append([]string{"Model", "Dataset"}, displayAll(t4.Techniques)...),
	}
	failures := false
	for _, m := range t4.Models {
		for _, ds := range t4.Datasets {
			row := []string{m, displayName(ds)}
			best := ""
			bestV := -1.0
			for _, tech := range t4.Techniques {
				s := t4.Acc[m][ds][tech]
				if s.N > 0 && s.Mean > bestV {
					bestV, best = s.Mean, tech
				}
			}
			for _, tech := range t4.Techniques {
				s := t4.Acc[m][ds][tech]
				if s.N == 0 {
					// Every repetition of this configuration failed.
					failures = true
					row = append(row, "FAILED")
					continue
				}
				cell := report.PercentCell(s.Mean)
				if tech == best {
					cell += "*"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
	}
	t.Notes = append(t.Notes, "* highest accuracy in the configuration (emphasis in the paper)")
	if failures {
		t.Notes = append(t.Notes, "FAILED: every repetition of the configuration failed; see the run's failure report")
	}
	return t
}

func displayAll(ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = displayName(id)
	}
	return out
}

// Render writes the motivating example in the shape of §II / §III-D.
func (m *MotivatingResult) Render(w io.Writer) {
	fmt.Fprintf(w, "Motivating example (Pneumonia*, ResNet50, 10%% mislabelling):\n")
	fmt.Fprintf(w, "  golden model accuracy: %s\n", report.PercentCI(m.GoldenAcc.Mean, m.GoldenAcc.CI95))
	fmt.Fprintf(w, "  faulty model accuracy: %s\n", report.PercentCI(m.FaultyAcc.Mean, m.FaultyAcc.CI95))
	fmt.Fprintf(w, "  AD per TDFM technique:\n")
	techs := make([]string, 0, len(m.TechniqueAD))
	for tech := range m.TechniqueAD {
		techs = append(techs, tech)
	}
	sort.Strings(techs)
	for _, tech := range techs {
		s := m.TechniqueAD[tech]
		fmt.Fprintf(w, "   %s\n", report.Bar(displayName(tech), s.Mean, s.CI95, 40))
	}
}

// RenderCombined writes the §IV-C combined-fault comparisons.
func RenderCombined(w io.Writer, comps []CombinedComparison) {
	t := &report.Table{
		Title:   "Combined fault types (§IV-C): AD of combination vs dominant single type",
		Headers: []string{"combined", "AD", "single", "AD", "statistically similar?"},
	}
	for _, c := range comps {
		t.AddRow(
			specsKey(c.Combined), report.PercentCI(c.CombinedAD.Mean, c.CombinedAD.CI95),
			specsKey(c.Single), report.PercentCI(c.SingleAD.Mean, c.SingleAD.CI95),
			fmt.Sprintf("%v", c.Similar),
		)
	}
	t.Render(w)
}

// RenderOverhead writes the §IV-E overhead analysis.
func RenderOverhead(w io.Writer, rows []OverheadRow) {
	t := &report.Table{
		Title:   "Runtime overhead (§IV-E), relative to the unprotected baseline",
		Headers: []string{"technique", "training overhead", "inference overhead", "wall time"},
	}
	for _, row := range rows {
		t.AddRow(displayName(row.Technique),
			fmt.Sprintf("%.1fx", row.TrainOverhead),
			fmt.Sprintf("%.0fx", row.InferenceOverhead),
			row.TrainTime.Round(1e6).String())
	}
	t.Render(w)
}

// RenderSpeedup writes the E11 parallel-speedup comparison. A nil report
// (serial run) renders nothing.
func RenderSpeedup(w io.Writer, s *SpeedupReport) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "parallel speedup (E11): %d workers finished the grid in %s vs %s serial (%.2fx)\n",
		s.Workers, s.Parallel.Round(1e6), s.Serial.Round(1e6), s.Ratio())
}

// RenderTable1 writes the survey selection (Table I).
func RenderTable1(w io.Writer) error {
	t := &report.Table{
		Title: "Table I: top three techniques per TDFM approach (representatives marked *)",
		Headers: []string{"TDFM Approach", "Technique", "Code?", "Arch-Agnostic?",
			"Artificial Noise?", "Not Pre-Trained?", "Standalone?"},
	}
	sel, err := survey.StudySelection()
	if err != nil {
		return err
	}
	repr := make(map[string]bool, len(sel))
	for _, s := range sel {
		repr[string(s.Approach)+"/"+s.Representative.Technique] = true
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "no"
	}
	for _, c := range survey.Candidates() {
		name := c.Technique + " " + c.Reference
		if repr[string(c.Approach)+"/"+c.Technique] {
			name += " *"
		}
		t.AddRow(string(c.Approach), name,
			mark(c.Criteria.CodeAvailable), mark(c.Criteria.ArchAgnostic),
			mark(c.Criteria.ArtificialNoise), mark(c.Criteria.NotPreTrained),
			mark(c.Criteria.Standalone))
	}
	t.Notes = append(t.Notes,
		"KD and Ensemble representatives were re-implemented from the articles' descriptions (§III-A)")
	t.Render(w)
	return nil
}

// RenderTable2 writes the dataset summary (Table II) from the runner's
// generated datasets.
func (r *Runner) RenderTable2(w io.Writer) error {
	t := &report.Table{
		Title:   "Table II: image classification datasets used (synthetic stand-ins)",
		Headers: []string{"Name", "Training", "Test", "Task (# classes)"},
	}
	tasks := map[string]string{
		"cifar10like":   "Objects and animals",
		"gtsrblike":     "Traffic signs",
		"pneumonialike": "Chest X-rays",
	}
	for _, name := range DatasetNames() {
		train, test, err := r.Dataset(name)
		if err != nil {
			return err
		}
		t.AddRow(displayName(name),
			fmt.Sprintf("%d", train.Len()), fmt.Sprintf("%d", test.Len()),
			fmt.Sprintf("%s (%d)", tasks[name], train.NumClasses))
	}
	t.Notes = append(t.Notes, "sizes scale with the harness -scale flag; the paper's 5:1 and 1/10 ratios are preserved")
	t.Render(w)
	return nil
}

func capitalize(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// RenderTable3 writes the architecture summary (Table III).
func RenderTable3(w io.Writer) {
	t := &report.Table{
		Title:   "Table III: neural network architectures used",
		Headers: []string{"Name", "Depth", "Architecture Summary"},
	}
	for _, name := range models.StudyModels() {
		info, err := models.Get(name)
		if err != nil {
			continue
		}
		t.AddRow(info.Name, capitalize(info.Depth), info.Summary)
	}
	t.Render(w)
}
