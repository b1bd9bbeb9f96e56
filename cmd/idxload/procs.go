package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// buildBinaries compiles idxserve and idxnode from the checkout's source
// into dir and reports how long that took. go build relinks only when the
// source changed, so repeated runs in one checkout pay it once.
func buildBinaries(root, dir string) (time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/idxserve", "./cmd/idxnode")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return 0, fmt.Errorf("go build idxserve idxnode: %v\n%s", err, out)
	}
	return time.Since(start), nil
}

// stderrTail is how many of a dead child's last stderr lines are printed.
const stderrTail = 20

// proc is one child daemon with its output captured: stdout for the banners
// (addresses are discovered from them, as cluster_test.go does) and the
// shutdown summary, stderr for the post-mortem when it dies.
type proc struct {
	name string
	cmd  *exec.Cmd

	mu     sync.Mutex
	stdout []string
	stderr []string

	readers sync.WaitGroup
	exited  chan struct{} // closed once Wait has returned
}

// live holds every child not yet reaped, so that a signal to the harness can
// take them down with it.
var live = struct {
	sync.Mutex
	procs map[*proc]struct{}
}{procs: map[*proc]struct{}{}}

// killChildren kills every child still running; the signal path calls it.
func killChildren() {
	live.Lock()
	defer live.Unlock()
	for p := range live.procs {
		_ = p.cmd.Process.Kill()
	}
}

// startProc launches bin. onExit, if non-nil, is called once when the
// process ends for any reason (the caller tells an expected stop from a
// death by whether it asked for the stop).
func startProc(name, bin string, args []string, onExit func(*proc)) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	live.Lock()
	live.procs[p] = struct{}{}
	live.Unlock()
	p.readers.Add(2)
	go p.capture(stdout, &p.stdout, 0)
	go p.capture(stderr, &p.stderr, stderrTail)
	go func() {
		p.readers.Wait() // Wait closes the pipes; drain them first
		_ = p.cmd.Wait() // the exit status is reported through lastStderr
		live.Lock()
		delete(live.procs, p)
		live.Unlock()
		close(p.exited)
		if onExit != nil {
			onExit(p)
		}
	}()
	return p, nil
}

// capture appends r's lines to *dst, keeping only the last keep when keep > 0.
func (p *proc) capture(r io.Reader, dst *[]string, keep int) {
	defer p.readers.Done()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		p.mu.Lock()
		*dst = append(*dst, sc.Text())
		if keep > 0 && len(*dst) > keep {
			*dst = (*dst)[len(*dst)-keep:]
		}
		p.mu.Unlock()
	}
}

func (p *proc) lines(which *[]string) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), *which...)
}

// banner waits until a stdout line contains marker and returns the token
// that follows it (up to the next space). It fails if the process exits or
// the timeout passes first.
func (p *proc) banner(marker string, timeout time.Duration) (string, error) {
	deadline := time.Now().Add(timeout)
	for {
		for _, line := range p.lines(&p.stdout) {
			if i := strings.Index(line, marker); i >= 0 {
				rest := line[i+len(marker):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				return rest, nil
			}
		}
		select {
		case <-p.exited:
			return "", fmt.Errorf("%s exited before printing %q\n%s", p.name, marker, p.lastStderr())
		default:
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s: banner %q not seen within %v", p.name, marker, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// lastStderr renders the post-mortem: exit state plus the stderr tail.
func (p *proc) lastStderr() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %v; last %d stderr lines:\n", p.name, p.cmd.ProcessState, stderrTail)
	for _, l := range p.lines(&p.stderr) {
		fmt.Fprintf(&b, "  | %s\n", l)
	}
	return b.String()
}

// stop asks the process to shut down (SIGTERM, so it drains and prints its
// summary), kills it if it has not ended after grace, and returns once it
// has been reaped.
func (p *proc) stop(grace time.Duration) {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(grace):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}
