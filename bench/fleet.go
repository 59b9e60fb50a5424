package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
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

// healthyWithin bounds how long one l2qserve process may take to print
// its address and answer /healthz.
const healthyWithin = 60 * time.Second

// proc is one l2qserve child process.
type proc struct {
	role string // "l2qserve", "node" or "coordinator"
	cmd  *exec.Cmd
	log  string // file holding its stdout and stderr
	url  string
	done chan struct{} // closed once the process has been reaped
}

// fleet is the set of server processes one workload runs against. Every
// process listens on a port the kernel chose (-addr 127.0.0.1:0) and
// writes to a log file in dir.
type fleet struct {
	bin   string
	dir   string
	procs []*proc
	// front is the base URL the clients talk to.
	front string
}

// corpusFlags are the l2qserve flags that describe the served corpus;
// every process of a fleet gets the same ones.
func corpusFlags(entities, pages int, seed uint64) []string {
	return []string{
		"-addr", "127.0.0.1:0", "-domain", "researchers",
		"-entities", strconv.Itoa(entities), "-pages", strconv.Itoa(pages),
		"-seed", strconv.FormatUint(seed, 10), "-harvest=false", "-quiet",
	}
}

// spawn starts one l2qserve process without waiting for it.
func (f *fleet) spawn(role string, args ...string) (*proc, error) {
	logPath := filepath.Join(f.dir, fmt.Sprintf("%s-%d.log", role, len(f.procs)))
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer lf.Close() // the child keeps its own descriptor
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	// If the benchmark dies without running its deferred stop (SIGKILL, a
	// panic on another goroutine), the kernel kills the child.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", role, err)
	}
	p := &proc{role: role, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // reaps; the exit status of a killed server says nothing
		close(p.done)
	}()
	f.procs = append(f.procs, p)
	return p, nil
}

var servingLine = regexp.MustCompile(`on (http://[0-9.]+:[0-9]+)`)

// await blocks until p has printed its "on http://…" line and answers
// /healthz, or fails with the tail of its log.
func (f *fleet) await(ctx context.Context, p *proc) error {
	deadline := time.Now().Add(healthyWithin)
	for {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up; log tail:\n%s", p.role, logTail(p.log))
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not healthy within %v; log tail:\n%s", p.role, healthyWithin, logTail(p.log))
		}
		if p.url == "" {
			b, err := os.ReadFile(p.log)
			if err != nil {
				return err
			}
			if m := servingLine.FindSubmatch(b); m != nil {
				p.url = string(m[1])
			}
		}
		if p.url != "" && healthy(ctx, p.url) {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func healthy(ctx context.Context, base string) bool {
	ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return string(bytes.Join(lines, []byte("\n")))
}

// startFleet boots the processes a workload needs and returns once the
// front is healthy. On error every process already started is stopped.
func startFleet(ctx context.Context, bin, dir, workload string, corpus []string) (f *fleet, err error) {
	f = &fleet{bin: bin, dir: dir}
	with := func(extra ...string) []string { return append(append([]string(nil), corpus...), extra...) }
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	switch workload {
	case "harvest_remote", "search_frozen", "search_live_ingest":
		args := corpus
		if workload == "search_live_ingest" {
			args = with("-live")
		}
		p, err := f.spawn("l2qserve", args...)
		if err != nil {
			return f, err
		}
		if err := f.await(ctx, p); err != nil {
			return f, err
		}
		f.front = p.url
	case "search_cluster3":
		const nodes = 3
		var urls []string
		for i := 0; i < nodes; i++ {
			args := with("-nodes", strconv.Itoa(nodes), "-nodeid", strconv.Itoa(i), "-replicas", "2")
			if _, err := f.spawn("node", args...); err != nil {
				return f, err
			}
		}
		for _, p := range f.procs {
			if err := f.await(ctx, p); err != nil {
				return f, err
			}
			urls = append(urls, p.url)
		}
		// The coordinator dials its nodes at boot, so it starts after them.
		p, err := f.spawn("coordinator", with("-coordinator", "-nodes", strings.Join(urls, ","), "-replicas", "2")...)
		if err != nil {
			return f, err
		}
		if err := f.await(ctx, p); err != nil {
			return f, err
		}
		f.front = p.url
	default:
		return f, fmt.Errorf("unknown workload %q", workload)
	}
	return f, nil
}

// stop kills every process and waits until each has been reaped. The
// servers hold no state worth a graceful drain.
func (f *fleet) stop() {
	for _, p := range f.procs {
		_ = p.cmd.Process.Kill() // already exited is fine
	}
	for _, p := range f.procs {
		<-p.done
	}
}

// alive reports the processes that have not been reaped.
func (f *fleet) alive() int {
	n := 0
	for _, p := range f.procs {
		select {
		case <-p.done:
		default:
			n++
		}
	}
	return n
}

// byRole returns the processes with the given role.
func (f *fleet) byRole(role string) []*proc {
	var out []*proc
	for _, p := range f.procs {
		if p.role == role {
			out = append(out, p)
		}
	}
	return out
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat's utime and stime;
// it is 100 on every Linux ABI Go supports.
const clockTick = 100

// cpuMs reads utime+stime of a process, in milliseconds.
func cpuMs(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields are counted
	// from the closing parenthesis.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	fields := strings.Fields(string(b[i+1:]))
	if len(fields) < 13 {
		return 0, errors.New("short /proc stat")
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return (utime + stime) * 1000 / clockTick, nil
}

// rssMb reads one of VmRSS / VmHWM from /proc/<pid>/status, in MB.
func rssMb(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("%s not in /proc/%d/status", key, pid)
}

// loadAvg1 is the 1-minute load average (0 when unreadable).
func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(f[0], 64) // 0 on a malformed file
	return v
}
