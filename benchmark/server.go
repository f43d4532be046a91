package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// needServer fails early when no built server was handed in.
func needServer(cfg runConfig) error {
	if cfg.server == "" {
		return fmt.Errorf("the HTTP workloads need -server <built rkm-server>; benchmark/run.sh builds and passes it")
	}
	return nil
}

// server is one running rkm-server process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches `rkm-server -demo -data-dir dir -fsync always` and
// waits for /healthz; the returned duration runs from process start to the
// first 200, i.e. it is the recovery time of whatever dir holds.
func startServer(cfg runConfig, dir string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(filepath.Join(cfg.work, "rkm-server.log"))
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(cfg.server, "-demo", "-addr", addr, "-data-dir", dir, "-fsync", "always", "-pprof")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	for deadline := t0.Add(60 * time.Second); ; {
		resp, err := http.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("rkm-server not healthy after 60 s (see %s)", logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill is kill -9 and waits until the process has ended.
func (s *server) kill() {
	if s == nil || s.cmd == nil {
		return
	}
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
	s.log.Close()
	s.cmd = nil
}

// cpuSeconds reads the server's CPU time: the on-CPU nanoseconds of each of
// its threads from /proc/<pid>/task/*/schedstat (the stat file's utime and
// stime only count 10 ms ticks).
func (s *server) cpuSeconds() float64 {
	files, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", s.cmd.Process.Pid))
	total := 0.0
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			continue // the thread ended between the glob and the read
		}
		if fields := strings.Fields(string(raw)); len(fields) > 0 {
			ns, _ := strconv.ParseFloat(fields[0], 64)
			total += ns
		}
	}
	return total / 1e9
}

var heapAllocRE = regexp.MustCompile(`# HeapAlloc = (\d+)`)

// liveHeapMB asks the server for a heap profile taken after a forced
// collection and reads the live heap from its MemStats block. The lowest of
// three readings is reported: what one request leaves behind (buffers,
// pooled objects awaiting their second collection) is noise on a small heap.
func (s *server) liveHeapMB() (float64, error) {
	best := math.Inf(1)
	for i := 0; i < 3; i++ {
		resp, err := http.Get(s.base + "/debug/pprof/heap?gc=1&debug=1")
		if err != nil {
			return 0, err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		m := heapAllocRE.FindSubmatch(raw)
		if m == nil {
			return 0, fmt.Errorf("no HeapAlloc in heap profile")
		}
		n, _ := strconv.ParseFloat(string(m[1]), 64)
		best = min(best, n/(1<<20))
	}
	return best, nil
}

// scrape reads /metrics into name -> value; labelled children and histogram
// _sum/_count lines are summed per name, buckets are skipped.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := http.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		if strings.HasSuffix(name, "_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// statement is one generated request: a Cypher text and its parameters.
type statement struct {
	query  string
	params map[string]any
}

// reply is the server's answer to /query and /execute.
type reply struct {
	Columns []string       `json:"columns"`
	Rows    [][]any        `json:"rows"`
	Stats   map[string]int `json:"stats"`
	Rules   map[string]int `json:"rules"`
	Error   string         `json:"error"`

	reqBytes, respBytes int
}

// client is one HTTP connection's worth of requests.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

// post sends one JSON request; a transport error or a non-200 status comes
// back as an error.
func (c *client) post(path string, body any) (*reply, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	r := &reply{reqBytes: len(raw), respBytes: len(data)}
	if resp.StatusCode != http.StatusOK {
		return r, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if len(data) > 0 && data[0] == '{' {
		if err := json.Unmarshal(data, r); err != nil {
			return r, fmt.Errorf("%s: bad reply: %w", path, err)
		}
	}
	return r, nil
}

func (c *client) statement(path string, st statement) (*reply, error) {
	return c.post(path, map[string]any{"query": st.query, "params": st.params})
}

// count runs a read-only statement that returns one number.
func (c *client) count(query string, params map[string]any) (int, error) {
	r, err := c.statement("/query", statement{query, params})
	if err != nil {
		return 0, err
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) < 1 {
		return 0, fmt.Errorf("%q returned %d rows", query, len(r.Rows))
	}
	n, ok := r.Rows[0][0].(float64)
	if !ok {
		return 0, fmt.Errorf("%q returned %v", query, r.Rows[0][0])
	}
	return int(n), nil
}

// alertCounts fetches /alerts and counts the alert nodes per rule.
func (c *client) alertCounts() (map[string]int, error) {
	resp, err := c.http.Get(c.base + "/alerts")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var alerts []struct {
		Rule string `json:"rule"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&alerts); err != nil {
		return nil, err
	}
	out := make(map[string]int)
	for _, a := range alerts {
		out[a.Rule]++
	}
	return out, nil
}
