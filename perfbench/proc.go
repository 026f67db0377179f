package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one running repairctl process.
type daemon struct {
	cmd  *exec.Cmd
	url  string        // base URL, from the "listening on" line
	done chan struct{} // closed once the process has been waited for
}

// procSet owns every process a run starts, so all of them stop when the
// run ends however it ends.
type procSet struct {
	mu    sync.Mutex
	procs []*daemon
}

// start runs repairctl with args and waits for its listen address.
// Stderr goes to logPath.
func (ps *procSet) start(bin, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, done: make(chan struct{})}
	ps.mu.Lock()
	ps.procs = append(ps.procs, d)
	ps.mu.Unlock()
	urls := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		sent := false
		for sc.Scan() {
			if u, ok := strings.CutPrefix(sc.Text(), "listening on "); ok && !sent {
				urls <- u
				sent = true
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.done)
	}()
	select {
	case d.url = <-urls:
		return d, nil
	case <-d.done:
		log, _ := os.ReadFile(logPath)
		return nil, fmt.Errorf("%s exited before listening: %s", args[0], strings.TrimSpace(string(log)))
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("%s did not start listening within 60s", args[0])
	}
}

// stop terminates the process and waits until it has exited.
func (d *daemon) stop() {
	select {
	case <-d.done:
		return
	default:
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
	}
}

func (ps *procSet) stopAll() {
	ps.mu.Lock()
	procs := ps.procs
	ps.procs = nil
	ps.mu.Unlock()
	for _, d := range procs {
		d.stop()
	}
}

// pid returns the process ID, or 0 for the benchmark process itself.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// peakRSSMB reads VmHWM from /proc/<pid>/status (pid 0 = this process).
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuSeconds reads utime+stime from /proc/<pid>/stat (pid 0 = this
// process), at the kernel's clock-tick resolution.
func cpuSeconds(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(data)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return 0, fmt.Errorf("short %s", path)
	}
	ut, err1 := strconv.ParseFloat(fields[11], 64)
	st, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing %s", path)
	}
	const ticks = 100 // USER_HZ on Linux
	return (ut + st) / ticks, nil
}

// stats fetches /v1/stats from a daemon as a generic JSON object.
func stats(c *http.Client, base string) (map[string]any, error) {
	resp, err := c.Get(base + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// num reads a numeric stats field (0 when absent).
func num(st map[string]any, key string) float64 {
	v, _ := st[key].(float64)
	return v
}

// delta is end[key] - start[key].
func delta(start, end map[string]any, key string) float64 { return num(end, key) - num(start, key) }

// stealSeconds reads the CPU time the hypervisor took from the machine
// (the steal column of /proc/stat), summed over its CPUs. Latency tails
// on a small VM follow it, so traced runs report it beside them.
func stealSeconds() (float64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	ticks, err := strconv.ParseFloat(fields[8], 64)
	if err != nil {
		return 0, fmt.Errorf("parsing steal in /proc/stat: %w", err)
	}
	return ticks / 100, nil
}
