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
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// node is one running bootesd process.
type node struct {
	url string
	cmd *exec.Cmd
	log string
	// done is closed once the process has exited and been reaped.
	done chan struct{}
}

// freePorts reserves n loopback ports by binding and releasing them. Every
// fleet member must know every URL before any starts, so the ports are chosen
// up front.
func freePorts(n int) ([]int, error) {
	ports := make([]int, n)
	ls := make([]net.Listener, n)
	defer func() {
		for _, l := range ls {
			if l != nil {
				l.Close()
			}
		}
	}()
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserving a port: %w", err)
		}
		ls[i] = l
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

// startNodes launches n bootesd processes under dir with default flags plus
// -cache (and -peers/-self when n > 1), and waits until each answers /readyz
// with 200.
func startNodes(ctx context.Context, bin, dir string, n int) ([]*node, error) {
	ports, err := freePorts(n)
	if err != nil {
		return nil, err
	}
	urls := make([]string, n)
	for i, p := range ports {
		urls[i] = fmt.Sprintf("http://127.0.0.1:%d", p)
	}
	var nodes []*node
	for i, p := range ports {
		args := []string{
			"-addr", fmt.Sprintf("127.0.0.1:%d", p),
			"-cache", filepath.Join(dir, fmt.Sprintf("cache%d", i)),
		}
		if n > 1 {
			args = append(args, "-peers", strings.Join(urls, ","), "-self", urls[i])
		}
		nd, err := startNode(bin, urls[i], filepath.Join(dir, fmt.Sprintf("node%d.log", i)), args)
		if err != nil {
			stopNodes(nodes)
			return nil, err
		}
		nodes = append(nodes, nd)
	}
	for _, nd := range nodes {
		if err := waitReady(ctx, nd); err != nil {
			stopNodes(nodes)
			return nil, err
		}
	}
	return nodes, nil
}

func startNode(bin, url, logPath string, args []string) (*node, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The kernel kills a node whose benchmark process dies, so no bootesd
	// outlives an interrupted run.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting bootesd: %w", err)
	}
	nd := &node{url: url, cmd: cmd, log: logPath, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(nd.done)
	}()
	return nd, nil
}

func waitReady(ctx context.Context, nd *node) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, nd.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-nd.done:
			return fmt.Errorf("bootesd %s exited during start-up:\n%s", nd.url, tail(nd.log))
		case <-ctx.Done():
			return fmt.Errorf("bootesd %s not ready: %w", nd.url, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// stopNodes sends SIGTERM (bootesd drains and exits), escalates to SIGKILL
// after a grace period, and returns once every process has been reaped.
func stopNodes(nodes []*node) {
	for _, nd := range nodes {
		_ = nd.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, nd := range nodes {
		select {
		case <-nd.done:
		case <-time.After(10 * time.Second):
			_ = nd.cmd.Process.Kill()
			<-nd.done
		}
	}
}

// tail returns the last lines of a node log, for error messages.
func tail(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) > 10 {
		lines = lines[len(lines)-10:]
	}
	return strings.Join(lines, "\n")
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status in bytes.
func procStatus(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), key+":")
		if !ok {
			continue
		}
		kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("parsing %s: %w", key, err)
		}
		return kb << 10, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New(key + " not found")
}

// resetPeakRSS restarts each node's VmHWM from its current RSS, so the peak
// read after the timed section excludes set-up. Reports whether every reset
// took effect (kernels without clear_refs support keep the set-up peak).
func resetPeakRSS(nodes []*node) bool {
	ok := true
	for _, nd := range nodes {
		path := fmt.Sprintf("/proc/%d/clear_refs", nd.cmd.Process.Pid)
		if err := os.WriteFile(path, []byte("5"), 0); err != nil {
			ok = false
		}
	}
	return ok
}

// peakRSS sums the nodes' VmHWM.
func peakRSS(nodes []*node) (int64, error) {
	var sum int64
	for _, nd := range nodes {
		v, err := procStatus(nd.cmd.Process.Pid, "VmHWM")
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

// scrapeAll reads every node's /metrics and sums the series across nodes.
func scrapeAll(client *http.Client, nodes []*node) (map[string]float64, error) {
	total := map[string]float64{}
	for _, nd := range nodes {
		resp, err := client.Get(nd.url + "/metrics")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", nd.url, err)
		}
		m, err := parseExposition(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("parsing %s/metrics: %w", nd.url, err)
		}
		for k, v := range m {
			total[k] += v
		}
	}
	return total, nil
}
