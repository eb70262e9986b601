package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is one invocation's footing: where the repository is, where the
// binaries under test were built, a scratch directory of its own, and
// every child process it has started. Close undoes all of it and runs
// on every exit path.
type env struct {
	root    string // repository root: go.mod, cmd/, internal/
	siteDir string // bench/site: the query and the templates
	bin     string // built binaries
	// tmplArgs is one -template flag per template of the bench site.
	tmplArgs []string
	scratch  string  // this run's inputs, outputs and logs: a tmpfs, see ramdisk.go
	fsyncUS  float64 // what one fsync costs on the disk scratch would otherwise be on

	mu    sync.Mutex
	procs []*proc
}

// findRoot locates the repository from the working directory: the
// contract runs the benchmark from the repository root, a developer may
// run it from bench/.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "bench", "site", "site.struql")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "cmd", "strudel", "main.go")); err != nil {
			return "", fmt.Errorf("%s holds the benchmark but not the strudel sources it measures", dir)
		}
		return dir, nil
	}
	return "", errors.New("run from the repository root or from bench/")
}

var errNoRAM = errors.New("scratch cannot be moved to memory (this needs CAP_SYS_ADMIN)")

// newEnv must be called from a goroutine locked to its thread, and the
// same goroutine must make every later use of the scratch directory: the
// tmpfs mounted there exists only in that thread's mount namespace.
func newEnv() (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, siteDir: filepath.Join(root, "bench", "site"), bin: filepath.Join(build, "bin")}
	if e.tmplArgs, err = templateArgs(e.siteDir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.bin, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(build, "run-"); err != nil {
		return nil, err
	}
	// What a durable write costs on this disk, measured while scratch is
	// still on it; then scratch moves to memory. There is no running on
	// disk instead: build and edit times wander with it (see ramdisk.go),
	// and two sets of runs on different footings cannot be compared.
	e.fsyncUS = measureFsync(e.scratch)
	if err := mountRAM(e.scratch); err != nil {
		os.Remove(e.scratch)
		return nil, fmt.Errorf("%w: %v", errNoRAM, err)
	}
	return e, nil
}

// Close kills and reaps every child still running and removes the
// scratch directory.
func (e *env) Close() {
	e.mu.Lock()
	procs := e.procs
	e.procs = nil
	e.mu.Unlock()
	for _, p := range procs {
		p.kill()
	}
	syscall.Unmount(e.scratch, syscall.MNT_DETACH)
	os.RemoveAll(e.scratch)
}

// buildBinaries compiles the two programs under test from the sources
// next to the benchmark. Compile time is never part of a metric.
func (e *env) buildBinaries() error {
	return e.goBuild(e.root, "-o", e.bin+string(filepath.Separator), "./cmd/strudel", "./cmd/strudel-serve")
}

// buildProbe compiles the layer probe, the one benchmark program that
// imports internal/. Its failure is survivable: a refactor that changes
// a probed signature costs the per-layer numbers, not the verdict.
func (e *env) buildProbe() error {
	return e.goBuild(filepath.Join(e.root, "bench"), "-tags", "benchprobe", "-o", e.path("strudel-probe"), "./probe")
}

func (e *env) goBuild(dir string, args ...string) error {
	cmd := exec.Command("go", append([]string{"build"}, args...)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return nil
}

func (e *env) path(binary string) string { return filepath.Join(e.bin, binary) }

// dir makes a fresh directory under the scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.scratch, name)
	return d, os.MkdirAll(d, 0o755)
}

// proc is a child process with its output captured to a log file.
type proc struct {
	cmd  *exec.Cmd
	log  string
	done chan struct{} // closed once Wait has returned
}

// start launches a long-running child (a server or a watcher). It dies
// with the driver even if the driver is killed outright.
func (e *env) start(logName string, binary string, args ...string) (*proc, error) {
	logPath := filepath.Join(e.scratch, logName)
	f, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(binary, args...)
	cmd.Stdout, cmd.Stderr = f, f
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		f.Close()
		return nil, err
	}
	p := &proc{cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		f.Close()
		close(p.done)
	}()
	e.mu.Lock()
	e.procs = append(e.procs, p)
	e.mu.Unlock()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the child to finish (SIGTERM), waits for it, and kills it
// if it lingers.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(3 * time.Second):
		p.kill()
	}
}

func (p *proc) kill() {
	if !p.exited() {
		p.cmd.Process.Kill()
	}
	<-p.done
}

// logTail returns the end of the child's log, for error messages.
func (p *proc) logTail() string {
	b, _ := os.ReadFile(p.log)
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// cpuSeconds reads the user+system CPU time a live process has used.
func cpuSeconds(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, in clock ticks of 1/100 s.
	rest := b[bytes.LastIndexByte(b, ')')+1:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB reads the high-water mark of a live process's resident set.
func peakRSSMB(pid int) float64 {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// freeAddr asks the kernel for an unused loopback port. The listener is
// closed before the child binds it, so a collision is possible but needs
// another process to grab the same port within milliseconds.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// writeAtomic replaces path with data by writing a sibling and renaming
// it over, so a reader polling the file never sees half an edit.
func writeAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// fsType names the filesystem holding path, from /proc/mounts: the
// batch and edit workloads publish with one fsync per page, so the
// numbers depend on it.
func fsType(path string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (path == mp || strings.HasPrefix(path, strings.TrimSuffix(mp, "/")+"/")) && len(mp) >= len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}

// machine records what the numbers were measured on.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	ScratchFS  string `json:"scratch_fs"`
}

func (e *env) machine() machine {
	return machine{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		ScratchFS:  fsType(e.scratch),
	}
}
