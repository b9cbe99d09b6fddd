package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
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

// A role says how a daemon is probed and whether it holds data.
type role int

const (
	roleServer   role = iota // tabledserver taking client (or router) batches
	roleFollower             // tabledserver replicating from a primary
	roleRouter               // tabledrouter
)

// A daemon is one spawned process with its own data dir. Its stdout and
// stderr go to a file there, since the daemons log one line per request.
type daemon struct {
	name string
	role role
	bin  string
	args []string
	dir  string
	addr string

	cmd  *exec.Cmd
	done chan struct{} // closed when cmd has been waited for
}

func (d *daemon) base() string { return "http://" + d.addr }

// data reports whether the daemon holds a WAL.
func (d *daemon) data() bool { return d.role != roleRouter }

func (d *daemon) start() error {
	logf, err := os.OpenFile(filepath.Join(d.dir, "daemon.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(d.bin, d.args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed before its cleanup ran must not leak daemons.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", d.name, err)
	}
	d.cmd, d.done = cmd, make(chan struct{})
	go func() {
		_ = cmd.Wait() // a SIGKILLed daemon exits non-zero by design
		close(d.done)
	}()
	return nil
}

// kill SIGKILLs the daemon and waits until it has exited.
func (d *daemon) kill() {
	if d.cmd == nil {
		return
	}
	_ = d.cmd.Process.Kill() // fails only if it already exited; done closes either way
	<-d.done
	d.cmd = nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// ready probes /readyz once. A follower is ready when it reports its
// read-only follower state; a router only once every member is healthy.
func (d *daemon) ready(ctx context.Context, hc *http.Client) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base()+"/readyz", nil)
	if err != nil {
		return false
	}
	resp, err := hc.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512)) // a short read just fails this probe
	switch d.role {
	case roleFollower:
		return resp.StatusCode == http.StatusServiceUnavailable && bytes.HasPrefix(body, []byte("degraded: follower"))
	case roleRouter:
		return resp.StatusCode == http.StatusOK && string(body) == "ready\n"
	}
	return resp.StatusCode == http.StatusOK
}

// readyTimeout bounds how long a daemon may take to become ready.
const readyTimeout = 30 * time.Second

// readyPoll is the /readyz polling interval. Start-up takes tens of
// milliseconds, so a coarser poll would quantize setup_s and recovery_s.
const readyPoll = 250 * time.Microsecond

// waitReady polls every daemon's /readyz until all are ready.
func waitReady(ctx context.Context, hc *http.Client, ds []*daemon) error {
	ctx, cancel := context.WithTimeout(ctx, readyTimeout)
	defer cancel()
	pending := append([]*daemon(nil), ds...)
	for {
		rest := pending[:0]
		for _, d := range pending {
			select {
			case <-d.done:
				return fmt.Errorf("%s exited during start-up; see %s", d.name, filepath.Join(d.dir, "daemon.log"))
			default:
			}
			if !d.ready(ctx, hc) {
				rest = append(rest, d)
			}
		}
		pending = rest
		if len(pending) == 0 {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("%s not ready: %w", pending[0].name, ctx.Err())
		}
		sleep(readyPoll)
	}
}

// A deployment is the daemons of one workload.
type deployment struct {
	all      []*daemon
	servers  []*daemon // tabledservers that execute the batches
	follower *daemon
	router   *daemon
	front    *daemon // the daemon the load generator talks to
}

// newDeployment lays out w's daemons under dir with fresh ports. Nothing
// is started.
func newDeployment(w *workload, bins, dir string) (*deployment, error) {
	dp := &deployment{}
	// Each port's listener stays open until every daemon has one, or the
	// kernel could hand a closed one out again and two daemons would share
	// it (one then answers the other's readiness probe).
	var held []net.Listener
	defer func() {
		for _, l := range held {
			_ = l.Close() // only reserved the port; nothing was accepted
		}
	}()
	add := func(name string, r role, bin string, args ...string) (*daemon, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		held = append(held, l)
		addr := l.Addr().String()
		d := &daemon{name: name, role: r, bin: filepath.Join(bins, bin), dir: filepath.Join(dir, name), addr: addr}
		if err := os.MkdirAll(d.dir, 0o755); err != nil {
			return nil, err
		}
		d.args = append([]string{"-addr", addr}, args...)
		dp.all = append(dp.all, d)
		return d, nil
	}
	table := func(name string, shards int, extra ...string) []string {
		return append([]string{
			"-mapping", "square-shell", "-shards", strconv.Itoa(shards),
			"-rows", strconv.FormatInt(w.rows, 10), "-cols", strconv.FormatInt(w.cols, 10),
			"-wal", filepath.Join(dir, name, "table.wal"), "-wal-sync", "0",
		}, extra...)
	}
	switch w.topo {
	case topoNode:
		d, err := add("node", roleServer, "tabledserver", table("node", 16)...)
		if err != nil {
			return nil, err
		}
		dp.servers, dp.front = []*daemon{d}, d
	case topoPair:
		p, err := add("primary", roleServer, "tabledserver", table("primary", 16, "-repl-ack", "2s")...)
		if err != nil {
			return nil, err
		}
		f, err := add("follower", roleFollower, "tabledserver", table("follower", 16, "-replicate-from", p.base())...)
		if err != nil {
			return nil, err
		}
		dp.servers, dp.follower, dp.front = []*daemon{p}, f, p
	case topoRouter:
		var bases []string
		for i := range 3 {
			name := fmt.Sprintf("member%d", i)
			m, err := add(name, roleServer, "tabledserver", table(name, 8)...)
			if err != nil {
				return nil, err
			}
			dp.servers = append(dp.servers, m)
			bases = append(bases, m.base())
		}
		r, err := add("router", roleRouter, "tabledrouter",
			"-mapping", "square-shell", "-max-addr", strconv.FormatInt(w.cells(), 10),
			"-nodes", strings.Join(bases, ","))
		if err != nil {
			return nil, err
		}
		dp.router, dp.front = r, r
	}
	return dp, nil
}

// start spawns the data daemons, waits for them, then spawns the router
// (whose start-up health baseline needs live members) and waits for it.
func (dp *deployment) start(ctx context.Context, hc *http.Client) error {
	var tier []*daemon
	for _, d := range dp.all {
		if d.data() {
			if err := d.start(); err != nil {
				return err
			}
			tier = append(tier, d)
		}
	}
	if err := waitReady(ctx, hc, tier); err != nil {
		return err
	}
	if dp.router == nil {
		return nil
	}
	if err := dp.router.start(); err != nil {
		return err
	}
	return waitReady(ctx, hc, []*daemon{dp.router})
}

// stop SIGKILLs every daemon and waits for each.
func (dp *deployment) stop() {
	for _, d := range dp.all {
		d.kill()
	}
}

// restartData SIGKILLs every data daemon, restarts each with the same
// flags and waits until all answer ready. It returns the time from the
// kill until the last one was ready.
func (dp *deployment) restartData(ctx context.Context, hc *http.Client) (time.Duration, error) {
	t0 := time.Now()
	var data []*daemon
	for _, d := range dp.all {
		if d.data() {
			d.kill()
			data = append(data, d)
		}
	}
	for _, d := range data {
		if err := d.start(); err != nil {
			return 0, err
		}
	}
	if err := waitReady(ctx, hc, data); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes
// it at 100 on every architecture Go supports.
const clkTck = 100

// cpuTime returns utime+stime of a process from /proc/<pid>/stat.
func cpuTime(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// vmHWM returns a process's peak resident set in bytes.
func vmHWM(pid int) (int64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// sumHWM sums the peak resident sets of ds in bytes.
func sumHWM(ds []*daemon) (int64, error) {
	var t int64
	for _, d := range ds {
		n, err := vmHWM(d.pid())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", d.name, err)
		}
		t += n
	}
	return t, nil
}

// diskBytes sums the WAL and its .state sidecar of a data daemon.
func diskBytes(d *daemon) (int64, error) {
	var n int64
	for _, name := range []string{"table.wal", "table.wal.state"} {
		st, err := os.Stat(filepath.Join(d.dir, name))
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return 0, err
		}
		n += st.Size()
	}
	return n, nil
}

// fsType names the filesystem holding path, from /proc/mounts.
func fsType(path string) string {
	abs, err := filepath.Abs(path)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mnt := f[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, typ = len(mnt), f[2]
		}
	}
	return typ
}
