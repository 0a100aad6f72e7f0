package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemonFlags are the flags every schedd under test runs with; the
// worker count stays at its default (GOMAXPROCS).
var daemonFlags = []string{"-listen", "127.0.0.1:0"}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100
// on Linux).
const clockTick = 10 * time.Millisecond

// daemon is one running schedd process.
type daemon struct {
	cmd  *osexec.Cmd
	addr string
	done chan struct{} // closed once the stdout drain has finished
}

// startDaemon execs the schedd binary and waits for its listen line.
func startDaemon(bin string) (*daemon, error) {
	cmd := osexec.Command(bin, daemonFlags...)
	cmd.Stderr = os.Stderr
	// A driver killed mid-run takes its daemon with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting schedd: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	lines := bufio.NewReader(out)
	line, err := lines.ReadString('\n')
	const prefix = "schedd: listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("schedd did not report its address (got %q, %v)", line, err)
	}
	d.addr = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	go func() {
		io.Copy(io.Discard, lines)
		close(d.done)
	}()
	return d, nil
}

// stop sends SIGTERM and waits for the process to exit, killing it if
// it has not drained within ten seconds.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() {
		<-d.done
		exited <- d.cmd.Wait()
	}()
	select {
	case err := <-exited:
		return err
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-exited
		return fmt.Errorf("schedd did not drain within 10s; killed")
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime
	// are fields 14 and 15 of the whole line.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line %q", s)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat line %q", s)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// peakRSSMB returns the daemon's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// hostTicks returns the host's stolen and total CPU ticks so far, from
// the aggregate line of /proc/stat. Steal is time the hypervisor gave
// this machine's vCPUs to someone else.
func hostTicks() (steal, total int64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parsing /proc/stat line %q", line)
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, nil
}
