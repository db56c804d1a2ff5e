package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is Linux's USER_HZ, the unit of the CPU times in
// /proc/<pid>/stat; it is 100 on every architecture Go supports.
const clockTicks = 100

// rssEvery is how often the resident set of the system under test is
// sampled while a run records.
const rssEvery = 100 * time.Millisecond

// tools are the system-under-test binaries, built from the tree.
type tools struct {
	serve, train, grid string
}

// buildTools builds cmd/tdfmserve, cmd/trainmodel and cmd/tdfmbench from
// the checkout at root into root/.bench_build/bin. Build time is not
// measured.
func buildTools(root string) (tools, error) {
	bin := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return tools{}, err
	}
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/tdfmserve", "./cmd/trainmodel", "./cmd/tdfmbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return tools{}, fmt.Errorf("building the system under test: %w\n%s", err, out)
	}
	return tools{
		serve: filepath.Join(bin, "tdfmserve"),
		train: filepath.Join(bin, "trainmodel"),
		grid:  filepath.Join(bin, "tdfmbench"),
	}, nil
}

// runLogged runs a tool to completion with its output appended to log.
func runLogged(log *os.File, name string, args ...string) error {
	cmd := exec.Command(name, args...)
	cmd.Stdout, cmd.Stderr = log, log
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s %s: %w (output in %s)", filepath.Base(name), strings.Join(args, " "), err, log.Name())
	}
	return nil
}

// peakRSSMB is a finished process's peak resident set in MiB.
func peakRSSMB(ps *os.ProcessState) float64 {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// server is a running tdfmserve process.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the process has exited
}

// startServer boots tdfmserve on an ephemeral loopback port over the
// registry reg, with default serving flags, and returns once /healthz
// answers 200.
func startServer(bin, reg string, log *os.File) (*server, error) {
	addr := &lineWatch{prefix: "serving on http://", found: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-model", reg)
	cmd.Stdout = io.MultiWriter(addr, log)
	cmd.Stderr = log
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting tdfmserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read from cmd.ProcessState
		close(s.done)
	}()
	select {
	case a := <-addr.found:
		s.url = "http://" + strings.Fields(a)[0]
	case <-s.done:
		return nil, fmt.Errorf("tdfmserve exited before serving: %v (output in %s)", cmd.ProcessState, log.Name())
	case <-time.After(time.Minute):
		s.stop()
		return nil, fmt.Errorf("tdfmserve did not announce an address within a minute")
	}
	if err := waitHealthy(s.url, time.Minute); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(url string, limit time.Duration) error {
	c := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for {
		resp, err := c.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s/healthz not healthy within %s (last error %v)", url, limit, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the server with SIGTERM, as an operator would, waits for
// it to exit (killing it after 30 s), and returns its finished state.
func (s *server) stop() *os.ProcessState {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	return s.cmd.ProcessState
}

// procCPU returns a process's user+system CPU time so far, from
// /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is parenthesised and may hold spaces; fields
	// resume after the last ')' with field 3 (state) at index 0.
	f := strings.Fields(string(raw[bytes.LastIndexByte(raw, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line for pid %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat for pid %d: %v %v", pid, err1, err2)
	}
	return time.Duration(utime+stime) * time.Second / clockTicks, nil
}

// procRSSMB returns a process's current resident set in MiB, from the
// VmRSS line of /proc/<pid>/status.
func procRSSMB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS for pid %d", pid)
}

// rssSampler samples a process's resident set every rssEvery until
// stopped. rss_mb is the mean of the samples, the process's footprint
// over the recorded window: the peak of a garbage-collected process
// depends on when collections happen to run, and moved by a fifth
// between identical grid runs where the mean moved by a twentieth.
type rssSampler struct {
	stop, done chan struct{}
	sum        float64
	n          int
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			// A process that has just exited has no status to read.
			if mb, err := procRSSMB(pid); err == nil {
				s.sum += mb
				s.n++
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// meanMB stops the sampling and returns the mean sample, NaN if none.
func (s *rssSampler) meanMB() float64 {
	close(s.stop)
	<-s.done
	if s.n == 0 {
		return math.NaN()
	}
	return s.sum / float64(s.n)
}

// hostCPU is a snapshot of the machine-wide CPU counters in /proc/stat.
type hostCPU struct{ total, steal uint64 }

// readHostCPU reads the aggregate "cpu" line of /proc/stat: the sum of
// its fields and the steal field, the time a hypervisor ran other guests
// while this one had work.
func readHostCPU() (hostCPU, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return hostCPU{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var h hostCPU
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return hostCPU{}, fmt.Errorf("parsing /proc/stat: %w", err)
		}
		h.total += n
		if i == 7 {
			h.steal = n
		}
	}
	return h, nil
}

// stealShare is the share of CPU time between two snapshots that the
// hypervisor took for other guests.
func stealShare(a, b hostCPU) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// lineWatch sends the rest of the first output line that starts with
// prefix on found, and discards everything else.
type lineWatch struct {
	prefix string
	found  chan string
	buf    []byte
	sent   bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		i := bytes.IndexByte(w.buf, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(w.buf[:i])
		w.buf = w.buf[i+1:]
		if rest, ok := strings.CutPrefix(line, w.prefix); ok {
			w.found <- rest
			w.sent, w.buf = true, nil
			return len(p), nil
		}
	}
}
