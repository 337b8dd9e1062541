package main

import (
	"bufio"
	"context"
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
	"syscall"
	"time"
)

// supervisor owns everything a run leaves outside its own memory: the built
// binaries, child processes and temporary data directories. close reaps all
// of it, and main calls close on every exit path including SIGINT.
//
// The benchmark runs with its working directory at bench/; outDir is
// bench/out, which the root .gitignore covers.
type supervisor struct {
	outDir string // bench/out
	runDir string // bench/out/run-<pid>, removed on close
	buildS float64

	mu       sync.Mutex
	children []*child
	closed   bool
}

func newSupervisor() (*supervisor, error) {
	out, err := filepath.Abs("out")
	if err != nil {
		return nil, err
	}
	s := &supervisor{outDir: out, runDir: filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))}
	if err := os.MkdirAll(s.runDir, 0o755); err != nil {
		return nil, err
	}
	return s, nil
}

// repoRoot is the module the benchmark measures: the parent of bench/.
func repoRoot() (string, error) {
	root, err := filepath.Abs("..")
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(root, "cmd", "gridschedd", "main.go")); err != nil {
		return "", fmt.Errorf("bench must run from the bench/ directory of a gridsched checkout: %w", err)
	}
	return root, nil
}

// build compiles gridschedd and gridrouter from the working tree into
// bench/out/bin. go build is a cache hit after the first run in a checkout.
func (s *supervisor) build(ctx context.Context) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	start := time.Now()
	bin := filepath.Join(s.outDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/gridschedd", "./cmd/gridrouter")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("building gridschedd and gridrouter: %w", err)
	}
	s.buildS = time.Since(start).Seconds()
	return nil
}

func (s *supervisor) bin(name string) string { return filepath.Join(s.outDir, "bin", name) }

// tempDir makes a fresh directory under the run directory.
func (s *supervisor) tempDir(prefix string) (string, error) {
	return os.MkdirTemp(s.runDir, prefix+"-")
}

// close kills every child still running, waits for each, and removes the
// run directory. Idempotent.
func (s *supervisor) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		c.kill()
	}
	_ = os.RemoveAll(s.runDir)
}

// child is one supervised process listening on a loopback port.
type child struct {
	name string
	base string // http://127.0.0.1:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; should another process take the port in
// between, the child exits and waitReady reports it with its log.
func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// start launches binary with "-addr 127.0.0.1:<free port>" plus args. It
// does not wait for readiness: recovery timing starts at the exec.
func (s *supervisor) start(name, binary string, args ...string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.CreateTemp(s.runDir, name+"-*.log")
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(binary, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The child dies with the benchmark even if the benchmark is killed
	// outright and never reaches close.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	c := &child{name: name, base: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.kill()
		return nil, fmt.Errorf("supervisor closed")
	}
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c, nil
}

// kill sends SIGKILL (the crash the durability contract is written
// against) and waits for the process to be reaped.
func (c *child) kill() {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.log.Close()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// logTail returns the end of the child's log for error messages.
func (c *child) logTail() string {
	data, err := os.ReadFile(c.log.Name())
	if err != nil {
		return ""
	}
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// probeClient is for readiness polls and scrapes; short timeout, no reuse
// surprises across child restarts on the same port.
var probeClient = &http.Client{
	Timeout:   5 * time.Second,
	Transport: &http.Transport{DisableKeepAlives: true},
}

// waitReady polls base/readyz until it answers 200, the child exits, or the
// timeout passes. The 1 ms cadence bounds the error of a recovery time.
func waitReady(ctx context.Context, base string, exited <-chan struct{}, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := probeClient.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-exited:
			return fmt.Errorf("%s exited before becoming ready", base)
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %s (last error: %v)", base, timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}

func (c *child) waitReady(ctx context.Context) error {
	if err := waitReady(ctx, c.base, c.done, 60*time.Second); err != nil {
		return fmt.Errorf("%s: %w\n%s", c.name, err, c.logTail())
	}
	return nil
}

// scrape fetches base/metrics and returns every sample keyed by its full
// series name including labels, e.g. `gridsched_snapshot_pause_ms{stat="max"}`.
func scrape(base string) (map[string]float64, error) {
	resp, err := probeClient.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: %s", base, resp.Status)
	}
	return parseMetrics(resp.Body)
}

func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
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

// procStatusMB reads one kB-valued field (VmHWM, VmRSS) of
// /proc/<pid>/status and returns it in MB.
func procStatusMB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, field)
}
