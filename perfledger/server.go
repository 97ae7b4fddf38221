package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one sgserve child process.
type server struct {
	cmd  *exec.Cmd
	base string // http://host:port
	done chan struct{}
}

// startServer launches a fresh sgserve, registers the plan's graphs and
// sends its warm-up requests. It returns once the server is ready, with
// the warm-up outcomes (hit-heavy checks its replies against them).
func startServer(ctx context.Context, bin, dir string, p plan, hc *http.Client) (*server, []outcome, error) {
	tmp, err := os.MkdirTemp(dir, "sgserve-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)
	addrFile := filepath.Join(tmp, "addr")
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-addr-file", addrFile,
		"-backend", backend,
		"-workers", strconv.Itoa(workers),
		"-ranks", strconv.Itoa(ranks),
		"-log-level", "warn",
	)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The server dies with this process even if it is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, nil, fmt.Errorf("start sgserve: %w", err)
	}
	s := &server{cmd: cmd, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }() //nolint:errcheck // exit status of a server we stop is not a result
	fail := func(err error) (*server, []outcome, error) {
		s.stop()
		return nil, nil, err
	}
	addr, err := waitAddr(ctx, addrFile, s.done)
	if err != nil {
		return fail(err)
	}
	s.base = "http://" + addr
	for _, g := range p.graphs {
		o := fetch(ctx, hc, http.MethodPost, s.base+"/v1/graphs", mustJSON(g))
		if o.err != nil || o.status != http.StatusOK {
			return fail(fmt.Errorf("register %s: status %d: %v: %s", g.Name, o.status, o.err, bytes.TrimSpace(o.body)))
		}
	}
	warm := replay(ctx, hc, s.base, p.warm, nil, false)
	for i, o := range warm.out {
		if o.err != nil || o.status != http.StatusOK || o.cache != "MISS" {
			return fail(fmt.Errorf("warm-up request %d: status %d X-Cache %q: %v", i, o.status, o.cache, o.err))
		}
	}
	return s, warm.out, nil
}

// waitAddr polls for the bound address sgserve writes once listening.
func waitAddr(ctx context.Context, path string, exited <-chan struct{}) (string, error) {
	deadline := time.After(30 * time.Second)
	for {
		if b, err := os.ReadFile(path); err == nil && len(bytes.TrimSpace(b)) > 0 {
			return strings.TrimSpace(string(b)), nil
		}
		select {
		case <-exited:
			return "", errors.New("sgserve exited before listening")
		case <-deadline:
			return "", errors.New("sgserve did not start listening within 30s")
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// stop terminates the server and waits until it has exited.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already gone is fine
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		s.cmd.Process.Kill() //nolint:errcheck // already gone is fine
		<-s.done
	}
}

// cpuMs reads the server's user+system CPU time from /proc.
func (s *server) cpuMs() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line, in clock ticks.
	f := strings.Fields(string(b[bytes.LastIndexByte(b, ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (u + st) * 1000 / ticksPerSecond, nil
}

// peakRSSMB reads the server's peak resident set (VmHWM) from /proc.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// solverRuns reads how many estimates the server has computed (cache
// replays excluded) from its /v1/stats engine section.
func (s *server) solverRuns(ctx context.Context, hc *http.Client) (float64, error) {
	o := fetch(ctx, hc, http.MethodGet, s.base+"/v1/stats", nil)
	if o.err != nil || o.status != http.StatusOK {
		return 0, fmt.Errorf("/v1/stats: status %d: %v", o.status, o.err)
	}
	var st struct {
		Engine struct {
			Backends map[string]struct {
				Runs float64 `json:"runs"`
			} `json:"backends"`
		} `json:"engine"`
	}
	if err := json.Unmarshal(o.body, &st); err != nil {
		return 0, fmt.Errorf("decode /v1/stats: %w", err)
	}
	var runs float64
	for _, b := range st.Engine.Backends {
		runs += b.Runs
	}
	return runs, nil
}
