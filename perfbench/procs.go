package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Process hygiene. Every server process the benchmark starts runs in a
// process group of its own (a router's spawned shards inherit it), is
// registered here, and is killed and reaped on every exit path: normal
// return, error, panic, and SIGINT/SIGTERM (see main). A process left
// over from an earlier run would steal CPU from this one, so a run
// refuses to start while one is alive.

// serverNames are the binaries whose stray instances fail a run.
var serverNames = []string{"swserver", "swrouter"}

// logLine is one stderr line of a server process, stamped on arrival.
type logLine struct {
	at   time.Time
	text string
}

// proc is one started server process.
type proc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once stderr hit EOF and the process was reaped

	mu    sync.Mutex
	lines []logLine
	keep  bool // retain stderr lines (the traced part of a run)
}

var registry struct {
	sync.Mutex
	procs []*proc
}

// listenRE matches a process's own startup announcement. Shard lines
// relayed by swrouter carry a "shardN.R:" tag before the level and so
// never match.
var listenRE = regexp.MustCompile(`^\S+ \S+ level=info event=listen addr=(\S+)`)

// startProc starts bin with args in its own process group and returns
// once it announced its listen address.
func startProc(bin string, args ...string) (*proc, string, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	p := &proc{cmd: cmd, done: make(chan struct{})}
	registry.Lock()
	if err := cmd.Start(); err != nil {
		registry.Unlock()
		return nil, "", fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	registry.procs = append(registry.procs, p)
	registry.Unlock()

	addrCh := make(chan string, 1)
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if m := listenRE.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
			p.mu.Lock()
			if p.keep {
				p.lines = append(p.lines, logLine{at: time.Now(), text: line})
			}
			p.mu.Unlock()
		}
		cmd.Wait()
	}()
	select {
	case addr := <-addrCh:
		return p, addr, nil
	case <-p.done:
		return nil, "", fmt.Errorf("%s exited before announcing its listen address", filepath.Base(bin))
	case <-time.After(30 * time.Second):
		p.kill()
		return nil, "", fmt.Errorf("%s announced no listen address within 30s", filepath.Base(bin))
	}
}

// record turns stderr retention on or off.
func (p *proc) record(on bool) {
	p.mu.Lock()
	p.keep = on
	p.mu.Unlock()
}

// logs returns the retained stderr lines.
func (p *proc) logs() []logLine {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]logLine(nil), p.lines...)
}

// pids returns the process and its descendants (a router's shards).
func (p *proc) pids() []int {
	out := []int{p.cmd.Process.Pid}
	for i := 0; i < len(out); i++ {
		tasks, _ := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/children", out[i]))
		for _, t := range tasks {
			b, err := os.ReadFile(t)
			if err != nil {
				continue
			}
			for _, f := range strings.Fields(string(b)) {
				if pid, err := strconv.Atoi(f); err == nil {
					out = append(out, pid)
				}
			}
		}
	}
	return out
}

// stop shuts the process down gracefully (SIGTERM; swrouter stops its
// own shards), falls back to killing the whole group, and returns once
// the process and every descendant has ended. Calling it again is a
// no-op.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	pids := p.pids()
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
	}
	for _, pid := range pids {
		if alive(pid) {
			// The group outlives its leader only while a member is
			// alive, so its ID cannot have been reused.
			syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
			break
		}
	}
	<-p.done
	waitGone(pids, 10*time.Second)
	registry.Lock()
	for i, q := range registry.procs {
		if q == p {
			registry.procs = append(registry.procs[:i], registry.procs[i+1:]...)
			break
		}
	}
	registry.Unlock()
}

// kill SIGKILLs the process group and reaps the leader.
func (p *proc) kill() {
	select {
	case <-p.done:
		return
	default:
	}
	pids := p.pids()
	syscall.Kill(-p.cmd.Process.Pid, syscall.SIGKILL)
	<-p.done
	waitGone(pids, 10*time.Second)
}

// killAll kills and reaps every process this run started; it is the
// cleanup of every exit path.
func killAll() {
	registry.Lock()
	procs := registry.procs
	registry.procs = nil
	registry.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// alive reports whether pid names a process that has not ended (a
// zombie has ended; its parent only has yet to reap it).
func alive(pid int) bool {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return false
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	return i < 0 || i+2 >= len(s) || s[i+2] != 'Z'
}

func waitGone(pids []int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for _, pid := range pids {
		for alive(pid) && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// checkNoStrays fails when a swserver or swrouter that this run did not
// start is alive. A process that is just exiting gets a few seconds.
func checkNoStrays() error {
	var strays []string
	for wait := 0; wait < 50; wait++ {
		strays = strays[:0]
		comms, _ := filepath.Glob("/proc/[0-9]*/comm")
		for _, c := range comms {
			b, err := os.ReadFile(c)
			if err != nil {
				continue
			}
			name := strings.TrimSpace(string(b))
			for _, s := range serverNames {
				pid, _ := strconv.Atoi(filepath.Base(filepath.Dir(c)))
				if name == s && alive(pid) {
					strays = append(strays, fmt.Sprintf("%s (pid %d)", name, pid))
				}
			}
		}
		if len(strays) == 0 {
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("stray server processes from an earlier run are alive and would steal CPU: %s", strings.Join(strays, ", "))
}

// procStat is one process's cumulative CPU time and peak RSS.
type procStat struct {
	cpu    time.Duration
	hwmKiB int64
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// readProcStat reads utime+stime from /proc/<pid>/stat and VmHWM from
// /proc/<pid>/status.
func readProcStat(pid int) (procStat, error) {
	var st procStat
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return st, err
	}
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	// Fields after the command: state is index 0, utime 11, stime 12.
	if len(f) < 13 {
		return st, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, _ := strconv.ParseInt(f[11], 10, 64)
	sy, _ := strconv.ParseInt(f[12], 10, 64)
	st.cpu = time.Duration(ut+sy) * clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return st, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			fmt.Sscan(rest, &st.hwmKiB)
		}
	}
	return st, nil
}

// resetPeakRSS sets the VmHWM of process pid back to its current RSS
// (Linux 4.0 and later), so that the next readProcStat reports the peak
// since this call.
func resetPeakRSS(pid int) error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", pid), []byte("5"), 0)
}
