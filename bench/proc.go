package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// harness owns everything a run leaves on the machine: child
// processes, temp directories and the files under bench/out. cleanup
// runs on every exit path, SIGINT and SIGTERM included.
type harness struct {
	root string // checkout root (holds cmd/ and bench/)
	bin  string // built semandaqd
	out  string // bench/out: child stderr and trace files
	tmp  string // this run's scratch directory, removed on exit

	mu       sync.Mutex
	children []*daemon
}

// findRoot walks up from dir to the directory that holds both
// cmd/semandaqd and bench.
func findRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		if isDir(filepath.Join(d, "cmd", "semandaqd")) && isDir(filepath.Join(d, "bench")) {
			return d, nil
		}
		if d == filepath.Dir(d) {
			return "", fmt.Errorf("no checkout with cmd/semandaqd and bench/ above %s", dir)
		}
	}
}

func isDir(p string) bool {
	fi, err := os.Stat(p)
	return err == nil && fi.IsDir()
}

// newHarness prepares the run's directories, all inside the checkout,
// and builds the daemon from the checkout's source unless bin names one
// already built (run.sh does that).
func newHarness(root, bin string) (*harness, error) {
	build := filepath.Join(root, ".bench_build")
	h := &harness{root: root, bin: bin, out: filepath.Join(root, "bench", "out")}
	for _, d := range []string{build, h.out} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if h.bin == "" {
		h.bin = filepath.Join(build, "semandaqd")
		cmd := exec.Command("go", "build", "-o", h.bin, "./cmd/semandaqd")
		cmd.Dir = root
		if msg, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building cmd/semandaqd: %v\n%s", err, msg)
		}
	}
	tmp, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	h.tmp = tmp
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.cleanup()
		os.Exit(130)
	}()
	return h, nil
}

// cleanup kills every child still running, waits for it, and removes
// the run's scratch directory.
func (h *harness) cleanup() {
	h.mu.Lock()
	children := h.children
	h.children = nil
	h.mu.Unlock()
	for _, d := range children {
		d.kill()
	}
	os.RemoveAll(h.tmp)
}

// mkdir makes a fresh directory under the run's scratch directory.
func (h *harness) mkdir(prefix string) (string, error) {
	return os.MkdirTemp(h.tmp, prefix+"-")
}

// daemon is one semandaqd child process.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	args []string
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// start runs the daemon with args on a free port and returns once
// /healthz answers 200 (polled every millisecond, so start-up and
// recovery times are not rounded to a poll interval). Its stderr is
// kept under bench/out/<logName>.log. The environment is inherited
// unchanged.
func (h *harness) start(logName string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(h.out, logName+".log"))
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", addr}, args...)
	d := &daemon{cmd: exec.Command(h.bin, args...), url: "http://" + addr, args: args, log: logf, done: make(chan struct{})}
	d.cmd.Stderr = logf
	d.cmd.Stdout = logf
	if err := d.cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	go func() {
		d.cmd.Wait()
		close(d.done)
	}()
	h.mu.Lock()
	h.children = append(h.children, d)
	h.mu.Unlock()
	probe := newAPI(d.url)
	deadline := time.Now().Add(60 * time.Second)
	for !probe.healthy() {
		select {
		case <-d.done:
			return nil, fmt.Errorf("%s exited during start-up; see %s", logName, logf.Name())
		default:
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("%s not healthy after 60s; see %s", logName, logf.Name())
		}
		time.Sleep(time.Millisecond)
	}
	return d, nil
}

// kill sends SIGKILL and waits for the process to end. Safe to call
// more than once.
func (d *daemon) kill() {
	if d.cmd.Process != nil {
		d.cmd.Process.Kill()
	}
	<-d.done
	d.log.Close()
}

// peakRSSMB reads the process's high-water resident set size.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", f.Name())
}
