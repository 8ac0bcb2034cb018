package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// seedPassages is the corpus size every run seeds.
const seedPassages = 100_000

// serverFlags are the flags every benchmark boot passes to dwqa serve
// (plus -addr and -data-dir). -seed 0 matches the fingerprint the
// seeder writes (it opens its directory with core.Config{}); the
// server's default -seed 42 would refuse the directory. -no-feed keeps
// the scenario cities' weather empty so the benchmark's feeds load it.
var serverFlags = []string{"-seed", "0", "-no-feed", "-quiet"}

// seedResult is one seeder run.
type seedResult struct {
	wall    time.Duration
	summary struct {
		PagesSeen int   `json:"pages_seen"`
		Passages  int   `json:"passages"`
		ElapsedNS int64 `json:"elapsed_ns"`
	}
}

// seedCorpus runs cmd/seeder into a fresh directory.
func seedCorpus(ctx context.Context, bin, dir string, gridSeed int64) (*seedResult, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, filepath.Join(bin, "seeder"),
		"-data", dir, "-passages", strconv.Itoa(seedPassages), "-seed", strconv.FormatInt(gridSeed, 10), "-quiet")
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("seeder: %w: %s", err, errb.String())
	}
	r := &seedResult{wall: time.Since(start)}
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "seeder-summary "); ok {
			if err := json.Unmarshal([]byte(rest), &r.summary); err != nil {
				return nil, fmt.Errorf("seeder summary: %w", err)
			}
			return r, nil
		}
	}
	return nil, fmt.Errorf("seeder printed no summary line")
}

// server is one running dwqa serve process.
type server struct {
	cmd    *exec.Cmd
	addr   string // 127.0.0.1:port
	base   string // http://addr
	pprof  string // the -pprof listener, http://127.0.0.1:port
	args   []string
	boot   time.Duration // process start until /healthz answered 200
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// startServer boots dwqa serve over dir and waits for /healthz.
func startServer(bin, dir, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	pport, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	paddr := fmt.Sprintf("127.0.0.1:%d", pport)
	args := append([]string{"serve", "-addr", addr, "-pprof", paddr, "-data-dir", dir}, serverFlags...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(bin, "dwqa"), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, addr: addr, base: "http://" + addr, pprof: "http://" + paddr, args: args, exited: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(90 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("dwqa serve exited during boot (%v): %s", s.err, log)
		default:
		}
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.boot = time.Since(start)
				return s, nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("dwqa serve did not answer /healthz within 90s")
}

// collectGarbage makes the server run a full GC (net/http/pprof's heap
// profile does so before sampling with ?gc=1). Called before each timed
// phase, it starts every phase at the same point of the collector's
// cycle: with a ~1 GB live heap a cycle costs about a second of CPU,
// and whether one happened to land inside a phase of a few seconds was
// a large source of run-to-run spread.
func (s *server) collectGarbage(client *http.Client) error {
	resp, err := client.Get(s.pprof + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("pprof heap: status %d", resp.StatusCode)
	}
	return err
}

// stop kills the server and waits for it to exit. The benchmark's data
// directories are thrown away, so no graceful drain or final snapshot
// is needed.
func (s *server) stop() {
	select {
	case <-s.exited:
		return
	default:
	}
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// procCPU returns the server's utime+stime so far.
func (s *server) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat: %v %v", err1, err2)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// hostCPU returns the host-wide stolen and total CPU ticks from
// /proc/stat: steal is time the hypervisor gave this machine's CPUs to
// someone else, which no change to the program can win back.
func hostCPU() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(x, 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 { // user nice system idle iowait irq softirq steal ...
			steal = v
		}
	}
	return steal, total, nil
}

// peakRSS returns the server's VmHWM in MiB.
func (s *server) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// metrics is one /metrics scrape: sample name with labels → value.
type metrics map[string]float64

func (s *server) scrape(client *http.Client) (metrics, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after-before for every sample.
func (m metrics) delta(before metrics) metrics {
	out := metrics{}
	for k, v := range m {
		out[k] = v - before[k]
	}
	return out
}

// stageNames are the engine's dwqa_stage_duration_seconds labels.
var stageNames = []string{"cache_lookup", "nlp_analyse", "ir_search", "qa_extract",
	"olap_compile", "olap_execute", "shard_fanout", "wal_append", "snapshot_publish"}

// stage returns a stage histogram's (sum seconds, count) from a delta.
func (m metrics) stage(name string) (float64, float64) {
	l := `{stage="` + name + `"}`
	return m["dwqa_stage_duration_seconds_sum"+l], m["dwqa_stage_duration_seconds_count"+l]
}
