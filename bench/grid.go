package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// gridEpochs is the training length of every grid cell. One epoch keeps
// a whole fig3 grid near 20 s on two cores, so a run measures a complete
// grid within the benchmark's time budget; cells run the same code paths
// as at any other epoch count.
const gridEpochs = 1

// gridTailPct sets grid-fig3's tail: tail_ms is the mean training time
// of the cells beyond this percentile, the slowest ten of 67. Cell times
// cluster by technique and architecture (the ensemble, distillation on
// the deep models), so a single order statistic jumps between clusters
// from run to run where the mean of the slowest ten does not.
const gridTailPct = 85

// gridSetups is how many times a grid run times its set-up. Each set-up
// is ~0.1 s and moves by a fifth with the cell that happens to finish
// first, so setup_s is the median of several.
const gridSetups = 7

// gridArgs are the tdfmbench flags of the grid-fig3 workload, minus the
// seed and the output paths.
var gridArgs = []string{"-exp", "fig3-mislabel", "-reps", "1", "-epochs", strconv.Itoa(gridEpochs)}

// gridCommand is the grid-fig3 command for seed, writing its CSV into dir
// and one progress line per trained cell to stderr.
func gridCommand(t tools, dir string, seed uint64) *exec.Cmd {
	args := append(append([]string(nil), gridArgs...), "-seed", strconv.FormatUint(seed, 10),
		"-progress", "-csv", filepath.Join(dir, "grid.csv"))
	return exec.Command(t.grid, args...)
}

// gridDigests is bench/grid_sha256.json: the sha256 of the grid's CSV per
// seed, for the exact flags in Args.
type gridDigests struct {
	Args   string            `json:"args"`
	SHA256 map[string]string `json:"sha256"`
}

func loadGridDigests(root string) (gridDigests, error) {
	var d gridDigests
	raw, err := os.ReadFile(filepath.Join(root, "bench", "grid_sha256.json"))
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("bench/grid_sha256.json: %w", err)
	}
	if want := strings.Join(gridArgs, " "); d.Args != want {
		return d, fmt.Errorf("bench/grid_sha256.json records digests for %q, the workload runs %q", d.Args, want)
	}
	return d, nil
}

// failures returns how many of a grid CSV's rows count as failed once its
// sha256 is checked against the digest recorded for seed, and why: a CSV
// that differs from the recorded one is wrong in every row. Without a
// recorded digest only the rows' own failed count stands.
func (d gridDigests) failures(seed uint64, sha string, rows, failed int) (int, string) {
	if want, known := d.SHA256[strconv.FormatUint(seed, 10)]; known && sha != want {
		return rows, fmt.Sprintf("grid CSV sha256 %s, recorded %s for seed %d", sha, want, seed)
	}
	return failed, ""
}

// gridOutcome is one complete grid run.
type gridOutcome struct {
	wall, cpu        time.Duration
	rssMB, peakRSSMB float64   // mean and peak resident set
	cellMS           []float64 // training time of every trained cell
	rows             int       // result rows in the CSV
	failed           int       // result rows with failed repetitions
	sha256           string
}

// runGrid runs the grid-fig3 workload: its set-up gridSetups times, then
// whole grids until seconds have passed, at least one.
func runGrid(t tools, root, dir string, seed uint64, seconds int) (*runResult, error) {
	digests, err := loadGridDigests(root)
	if err != nil {
		return nil, err
	}
	if _, known := digests.SHA256[strconv.FormatUint(seed, 10)]; !known {
		fmt.Fprintf(os.Stderr, "tdfmperf: no recorded grid digest for seed %d; checking the CSV's shape only\n", seed)
	}
	res := newResult("grid-fig3", seed)
	for range gridSetups {
		s, err := gridSetup(t, dir, seed)
		if err != nil {
			return nil, err
		}
		res.Setups = append(res.Setups, s)
	}

	var cells, rss []float64
	host0, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	begin := time.Now()
	for len(res.Rounds) == 0 || time.Since(begin) < time.Duration(seconds)*time.Second {
		g, err := oneGrid(t, dir, seed)
		if err != nil {
			return nil, err
		}
		failed, why := digests.failures(seed, g.sha256, g.rows, g.failed)
		res.Attempted += g.rows
		res.Failed += failed
		if why != "" && res.Error == "" {
			res.Error = why
		}
		cells = append(cells, g.cellMS...)
		res.Rounds = append(res.Rounds, round{Seconds: g.wall.Seconds(), Requests: len(g.cellMS),
			P50MS: percentile(g.cellMS, 50), RowsPerS: float64(g.rows) / g.wall.Seconds(),
			CPUMSPerRow: ms(g.cpu) / float64(g.rows)})
		rss = append(rss, g.rssMB)
		res.PeakRSSMB = max(res.PeakRSSMB, g.peakRSSMB)
		res.GridSHA256 = g.sha256
	}
	host1, err := readHostCPU()
	if err != nil {
		return nil, err
	}
	res.StealShare = stealShare(host0, host1)
	res.Metrics["setup_s"] = median(res.Setups)
	res.Metrics["p50_ms"] = percentile(cells, 50)
	res.setTail(cells, gridTailPct)
	res.Metrics["tail_ms"] = meanAbove(cells, res.Metrics["tail_ms"])
	res.Metrics["rows_per_s"] = median(roundField(res.Rounds, func(r round) float64 { return r.RowsPerS }))
	res.Metrics["cpu_ms_per_row"] = median(roundField(res.Rounds, func(r round) float64 { return r.CPUMSPerRow }))
	res.Metrics["rss_mb"] = median(rss)
	res.Correct = res.Failed == 0
	return res, nil
}

// gridSetup times the grid's set-up once: it starts the grid-fig3 command
// and stops it at its first trained cell. Set-up is the time from process
// start to that cell's progress line minus the cell's training time:
// process start, the grid's dataset generation and fault injection, and
// the cell's test-set prediction.
func gridSetup(t tools, dir string, seed uint64) (float64, error) {
	cmd := gridCommand(t, dir, seed)
	pipe, err := cmd.StderrPipe()
	if err != nil {
		return 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("starting tdfmbench: %w", err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait() // killed on purpose; the exit status says nothing
	}()
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		d, ok, err := trainedTime(sc.Text())
		if err != nil {
			return 0, err
		}
		if ok {
			return time.Since(start).Seconds() - d.Seconds(), nil
		}
	}
	return 0, fmt.Errorf("tdfmbench %s exited before training a cell", strings.Join(cmd.Args[1:], " "))
}

// oneGrid runs the fig3 grid once through the tdfmbench binary and checks
// its CSV.
func oneGrid(t tools, dir string, seed uint64) (*gridOutcome, error) {
	var stderr bytes.Buffer
	cmd := gridCommand(t, dir, seed)
	cmd.Stderr = &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tdfmbench: %w", err)
	}
	rss := sampleRSS(cmd.Process.Pid)
	err := cmd.Wait()
	g := &gridOutcome{wall: time.Since(start), rssMB: rss.meanMB()}
	if err != nil {
		return nil, fmt.Errorf("tdfmbench %s: %w\n%s", strings.Join(cmd.Args[1:], " "), err, tail(stderr.String(), 2000))
	}
	ps := cmd.ProcessState
	g.cpu = ps.UserTime() + ps.SystemTime()
	g.peakRSSMB = peakRSSMB(ps)
	if g.cellMS, err = cellTimes(stderr.String()); err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(filepath.Join(dir, "grid.csv"))
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	g.sha256 = hex.EncodeToString(sum[:])
	g.rows, g.failed, err = checkGridCSV(raw)
	return g, err
}

// cellTimes extracts the per-cell training times from tdfmbench
// -progress output ("trained <cell key> <duration>").
func cellTimes(progress string) ([]float64, error) {
	var out []float64
	for _, line := range strings.Split(progress, "\n") {
		d, ok, err := trainedTime(line)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, ms(d))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tdfmbench -progress printed no trained cells")
	}
	return out, nil
}

// trainedTime parses one tdfmbench -progress line; ok reports whether it
// was a "trained <cell key> <duration>" line.
func trainedTime(line string) (d time.Duration, ok bool, err error) {
	f := strings.Fields(line)
	if len(f) != 3 || f[0] != "trained" {
		return 0, false, nil
	}
	if d, err = time.ParseDuration(f[2]); err != nil {
		return 0, false, fmt.Errorf("parsing cell time in %q: %w", line, err)
	}
	return d, true, nil
}

// fig3Rows is the fig3-mislabel CSV's row count: 4 models × 6 techniques
// × 3 rates.
const fig3Rows = 72

// checkGridCSV checks the grid CSV's shape: the expected row count, one
// repetition per row, and counts rows whose repetitions failed.
func checkGridCSV(raw []byte) (rows, failed int, err error) {
	recs, err := csv.NewReader(bytes.NewReader(raw)).ReadAll()
	if err != nil {
		return 0, 0, fmt.Errorf("reading grid CSV: %w", err)
	}
	if len(recs) < 1 {
		return 0, 0, fmt.Errorf("grid CSV is empty")
	}
	col := map[string]int{}
	for i, h := range recs[0] {
		col[h] = i
	}
	fr, okF := col["failed_reps"]
	rp, okR := col["reps"]
	if !okF || !okR {
		return 0, 0, fmt.Errorf("grid CSV header %v lacks reps/failed_reps", recs[0])
	}
	for _, r := range recs[1:] {
		rows++
		if r[fr] != "0" || r[rp] != "1" {
			failed++
		}
	}
	if rows != fig3Rows {
		return rows, failed, fmt.Errorf("grid CSV has %d rows, want %d", rows, fig3Rows)
	}
	return rows, failed, nil
}

func tail(s string, n int) string {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
