package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one dclserved child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	logf   *os.File
	exited chan struct{}
	err    error // the Wait result, valid once exited is closed
}

// startDaemon execs bin listening on a free loopback port, with its log
// (stdout and stderr) going to logPath. The child dies with the benchmark
// if the benchmark itself is killed.
func startDaemon(bin, logPath string, args []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(port))
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting daemon: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, logf: logf, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		logf.Close()
		close(d.exited)
	}()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("daemon exited before ready: %v", d.err)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/readyz", nil)
		resp, err := c.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("daemon not ready in time")
		}
		time.Sleep(200 * time.Microsecond) // fine enough not to blur setup_s
	}
}

// stop asks the daemon to drain (SIGTERM) and waits for it; after timeout
// it is killed. A non-zero exit is an error: the daemon reports a lossy
// shutdown that way.
func (d *daemon) stop(timeout time.Duration) error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(timeout):
		d.kill()
		return errors.New("daemon did not drain in time")
	}
}

// kill stops the daemon at once and waits until it has exited.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuMS is the daemon's user+system CPU time so far, from /proc.
func (d *daemon) cpuMS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(raw)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+2:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat line")
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return (utime + stime) * 1000 / ticksPerSecond, nil
}

// peakRSSMiB is the daemon's high-water resident set (VmHWM).
func (d *daemon) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
