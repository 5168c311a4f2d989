package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// topkd is one running server process and the single keep-alive
// connection the closed loop drives it over.
type topkd struct {
	cmd    *exec.Cmd
	exited chan error
	base   string
	client *http.Client
	dials  atomic.Int64
}

// startTopkd spawns the server with its default flags, except for a
// loopback listen address on a free port, and waits for /readyz.
func startTopkd(bin string) (*topkd, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	lw := &listenWatcher{addr: make(chan string, 1)}
	cmd.Stdout = lw
	// Should the harness die, the kernel kills the server with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting topkd: %w", err)
	}
	s := &topkd{cmd: cmd, exited: make(chan error, 1)}
	go func() { s.exited <- cmd.Wait() }()
	select {
	case a := <-lw.addr:
		s.base = "http://" + a
	case err := <-s.exited:
		return nil, fmt.Errorf("topkd exited before listening: %v", err)
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("topkd did not report its listen address")
	}
	dialer := &net.Dialer{}
	s.client = &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			s.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, _, _, err := s.do("GET", "/readyz", "", nil)
		if err == nil && status == http.StatusOK {
			return s, nil
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("topkd not ready after 30s (status %d, err %v)", status, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// listenWatcher is topkd's standard output: it passes the listen
// address from the start-up line on and discards the rest.
type listenWatcher struct {
	mu   sync.Mutex
	line []byte
	sent bool
	addr chan string
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.sent {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	for {
		i := bytes.IndexByte(w.line, '\n')
		if i < 0 {
			return len(p), nil
		}
		if a, ok := strings.CutPrefix(string(w.line[:i]), "topkd listening on http://"); ok {
			w.addr <- strings.TrimSuffix(a, "/")
			w.sent, w.line = true, nil
			return len(p), nil
		}
		w.line = w.line[i+1:]
	}
}

// do sends one request and reads the whole answer. elapsedNs is the
// server's X-Topkd-Elapsed-Ns header, or 0 when absent.
func (s *topkd) do(method, path, contentType string, body []byte) (status int, resp []byte, elapsedNs int64, err error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	r, err := s.client.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	if err != nil {
		return r.StatusCode, nil, 0, err
	}
	if h := r.Header.Get("X-Topkd-Elapsed-Ns"); h != "" {
		elapsedNs, _ = strconv.ParseInt(h, 10, 64)
	}
	return r.StatusCode, resp, elapsedNs, nil
}

// stop asks topkd to drain (SIGTERM), kills it if it has not exited
// within 20s, and waits until the process is gone.
func (s *topkd) stop() {
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuTime is the server's user plus system CPU time so far, from
// /proc/<pid>/stat.
func (s *topkd) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	// The kernel reports clock ticks of USER_HZ, 100 on Linux.
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB is VmHWM from /proc/<pid>/status, in MiB.
func (s *topkd) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// debugVars is the part of topkd's /debug/vars the benchmark reads.
type debugVars struct {
	Memstats struct {
		Mallocs      uint64 `json:"Mallocs"`
		NumGC        uint32 `json:"NumGC"`
		PauseTotalNs uint64 `json:"PauseTotalNs"`
	} `json:"memstats"`
	Topkagg struct {
		Counters map[string]int64 `json:"counters"`
	} `json:"topkagg"`
}

func (s *topkd) vars() (*debugVars, error) {
	status, body, _, err := s.do("GET", "/debug/vars", "", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/debug/vars: status %d", status)
	}
	var v debugVars
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return &v, nil
}
