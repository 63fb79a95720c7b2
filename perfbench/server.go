package main

import (
	"bufio"
	"bytes"
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
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxConns is the generator's connection (and goroutine) budget: the
// box has two CPUs and the server's pool takes both.
const maxConns = 2

// server is a psserve subprocess built from the tree, serving a
// directory of programs on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	dir    string
	client *http.Client
	done   chan struct{}
}

// startServer writes each job's program into a fresh directory under
// out and starts psserve on it with default settings.
func startServer(bin, out string, jobs []*job) (*server, error) {
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("psserve binary: %w", err)
	}
	dir, err := os.MkdirTemp(out, "programs-")
	if err != nil {
		return nil, err
	}
	for _, j := range jobs {
		path := filepath.Join(dir, j.program+".ps")
		if err := os.WriteFile(path, []byte(j.src), 0o644); err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	logf, err := os.Create(filepath.Join(out, "psserve.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, "-programs", dir, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	cmd.Stdout = logf
	cmd.Stderr = logf
	// The server must not outlive the benchmark, even if it is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &server{
		cmd:  cmd,
		base: "http://127.0.0.1:" + strconv.Itoa(port),
		dir:  dir,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			DisableCompression:  true,
		}},
		done: make(chan struct{}),
	}
	go func() { cmd.Wait(); close(s.done) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := s.client.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.done:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("psserve exited during start-up (see %s)", logf.Name())
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("psserve did not become healthy within 30s")
		}
	}
}

// stop terminates the server and waits until it has exited.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	os.RemoveAll(s.dir)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// reply is the slice of a /v1/run response the benchmark reads.
type reply struct {
	Results   json.RawMessage `json:"results"`
	BatchSize int             `json:"batch_size"`
	WallMs    float64         `json:"wall_ms"`
}

// sample is one request's timeline, in ns from the probe's start.
type sample struct {
	sent, done int64
	status     int
	batch      int
	wallMs     float64
	wrong, err bool
}

func (s sample) failed() bool { return s.err || s.status != http.StatusOK }

// post sends one job's request and checks its results.
func (s *server) post(j *job, rec *sample, t0 time.Time) {
	resp, err := s.client.Post(s.base+"/v1/run", "application/json", bytes.NewReader(j.body))
	if err != nil {
		rec.err = true
		rec.done = int64(time.Since(t0))
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.done = int64(time.Since(t0))
	rec.status = resp.StatusCode
	if err != nil {
		rec.err = true
		return
	}
	if resp.StatusCode != http.StatusOK {
		return
	}
	var r reply
	if err := json.Unmarshal(body, &r); err != nil {
		rec.err = true
		return
	}
	rec.batch, rec.wallMs = r.BatchSize, r.WallMs
	rec.wrong = !bytes.Equal(r.Results, j.refJSON)
}

// closedProbe sends seq from maxConns closed-loop senders for dur.
func (s *server) closedProbe(seq []*job, dur time.Duration) []sample {
	var (
		mu   sync.Mutex
		recs []sample
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < dur {
				i := int(next.Add(1) - 1)
				rec := sample{sent: int64(time.Since(t0))}
				s.post(seq[i%len(seq)], &rec, t0)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs
}

// distinctPrograms returns one job per program name.
func distinctPrograms(jobs []*job) []*job {
	seen := map[string]bool{}
	var out []*job
	for _, j := range jobs {
		if !seen[j.program] {
			seen[j.program] = true
			out = append(out, j)
		}
	}
	return out
}

// boolErr maps a failure flag to a non-nil error for tallying.
func boolErr(failed bool) error {
	if failed {
		return errFailed
	}
	return nil
}

var errFailed = fmt.Errorf("request failed")

// scrape reads the Prometheus text from /metrics into name → value,
// summing labeled series of one family.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if strings.Contains(name, "_bucket") {
				continue
			}
			name = name[:b]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out, sc.Err()
}
