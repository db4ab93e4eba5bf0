// Package soak is the closed-loop soak/chaos harness behind
// `zerber-bench -run soak`: it boots a real multi-shard, replicated
// cluster of zerberd processes, drives it with a million-user zipfian
// op stream (internal/workload.Stream), injects faults — SIGKILL
// mid-WAL, restarts, replica kills, live migrations — and continuously
// asserts the repo's durability and verification claims as invariants:
//
//   - restart-identity: after every recovery, cluster answers are
//     element-identical to a shadow oracle of acknowledged writes;
//   - cache-epoch safety: one (list, version, window) never serves two
//     different contents, kills and restarts included;
//   - proof validity: WithProof searches never fail verification
//     against the honest cluster;
//   - SLOs: error rate within the configured budget, p99 tracked.
//
// The run emits a one-line JSON Report. See DESIGN.md "Soak & chaos".
package soak

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// Proc supervises one zerberd process. It remembers its own spawn
// arguments, so a SIGKILLed process can be restarted onto the same
// address and data directory (where WAL recovery resumes).
type Proc struct {
	// Name labels the process in logs ("s0-m1" = shard 0, member 1).
	Name string
	// Addr is the fixed listen address (host:port); restarts rebind it.
	Addr string
	// DataDir is the durable directory (WAL + snapshots).
	DataDir string

	binary string
	args   []string
	logf   func(format string, args ...interface{})

	cmd  *exec.Cmd
	done chan error // receives the wait result of the current cmd
}

// ProcConfig parameterizes StartProc.
type ProcConfig struct {
	// Binary is the zerberd executable path.
	Binary string
	// Name labels the process.
	Name string
	// Addr is the listen address; empty picks a free localhost port.
	Addr string
	// DataDir is the durable directory; it is created if missing.
	DataDir string
	// SecretFile holds the shared token-signing secret.
	SecretFile string
	// TokenTTL is the token lifetime (soak runs outlive the default).
	TokenTTL time.Duration
	// Users are repeated -user NAME=G1,G2 registrations.
	Users []string
	// ExtraArgs are appended verbatim (fsync policy, cache size, ...).
	ExtraArgs []string
	// Logf receives supervisor progress lines; nil silences them.
	Logf func(format string, args ...interface{})
}

// freePort reserves a localhost port by binding and releasing it.
// There is a small window in which another process could take it; the
// soak harness only races itself, and a clash fails loudly at spawn.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// StartProc spawns a zerberd and waits for it to answer /v2/stats.
func StartProc(cfg ProcConfig) (*Proc, error) {
	addr := cfg.Addr
	if addr == "" {
		var err error
		addr, err = freePort()
		if err != nil {
			return nil, fmt.Errorf("soak: reserving port: %w", err)
		}
	}
	if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("soak: data dir: %w", err)
	}
	args := []string{
		"-addr", addr,
		"-secret-file", cfg.SecretFile,
		"-data-dir", cfg.DataDir,
		"-token-ttl", cfg.TokenTTL.String(),
		"-log-format", "json",
	}
	for _, u := range cfg.Users {
		args = append(args, "-user", u)
	}
	args = append(args, cfg.ExtraArgs...)
	p := &Proc{
		Name:    cfg.Name,
		Addr:    addr,
		DataDir: cfg.DataDir,
		binary:  cfg.Binary,
		args:    args,
		logf:    cfg.Logf,
	}
	if p.logf == nil {
		p.logf = func(string, ...interface{}) {}
	}
	if err := p.start(); err != nil {
		return nil, err
	}
	return p, nil
}

// BaseURL is the process's HTTP root.
func (p *Proc) BaseURL() string { return "http://" + p.Addr }

// start spawns the process and waits for readiness. The process log
// is appended to <DataDir>/zerberd.log across restarts, so the
// pre-kill and post-restart halves of an incident sit in one file.
func (p *Proc) start() error {
	logPath := filepath.Join(p.DataDir, "zerberd.log")
	logFile, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("soak: %s: opening log: %w", p.Name, err)
	}
	cmd := exec.Command(p.binary, p.args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return fmt.Errorf("soak: %s: starting zerberd: %w", p.Name, err)
	}
	done := make(chan error, 1)
	go func() {
		done <- cmd.Wait()
		logFile.Close()
	}()
	p.cmd = cmd
	p.done = done
	if err := p.waitReady(15 * time.Second); err != nil {
		p.Kill()
		return fmt.Errorf("soak: %s: %w", p.Name, err)
	}
	p.logf("proc %s ready on %s (pid %d)", p.Name, p.Addr, cmd.Process.Pid)
	return nil
}

// waitReady polls /v2/stats until the server answers 200.
func (p *Proc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: time.Second}
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.BaseURL() + "/v2/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("stats answered %d", resp.StatusCode)
		} else {
			lastErr = err
		}
		select {
		case err := <-p.done:
			return fmt.Errorf("zerberd exited before ready: %v (%s)", err, tailOf(filepath.Join(p.DataDir, "zerberd.log")))
		case <-time.After(50 * time.Millisecond):
		}
	}
	return fmt.Errorf("zerberd not ready after %s: %v", timeout, lastErr)
}

// tailOf returns the end of a log file for error context.
func tailOf(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "no log"
	}
	const n = 400
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// Alive reports whether the process is currently running.
func (p *Proc) Alive() bool {
	if p.cmd == nil {
		return false
	}
	select {
	case err := <-p.done:
		// Preserve the exit for a later Kill/Stop caller.
		p.done <- err
		return false
	default:
		return true
	}
}

// Kill delivers SIGKILL — the mid-WAL crash fault. The process gets
// no chance to flush, snapshot or say goodbye; everything it promised
// must be recoverable from what File.Write already handed the kernel.
func (p *Proc) Kill() error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("soak: %s: not started", p.Name)
	}
	p.logf("proc %s: SIGKILL (pid %d)", p.Name, p.cmd.Process.Pid)
	_ = p.cmd.Process.Kill()
	<-p.done
	p.done <- fmt.Errorf("killed")
	return nil
}

// Stop delivers SIGTERM and waits for the graceful shutdown (final
// snapshot included) up to the context's deadline, then escalates to
// SIGKILL.
func (p *Proc) Stop(ctx context.Context) error {
	if p.cmd == nil || p.cmd.Process == nil {
		return fmt.Errorf("soak: %s: not started", p.Name)
	}
	p.logf("proc %s: SIGTERM (pid %d)", p.Name, p.cmd.Process.Pid)
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-p.done:
		p.done <- err
		return nil
	case <-ctx.Done():
		_ = p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
		return fmt.Errorf("soak: %s: graceful stop timed out, killed", p.Name)
	}
}

// Restart spawns the process again with the identical arguments: same
// address, same data directory, so it recovers its index from the WAL
// and snapshots the previous incarnation persisted.
func (p *Proc) Restart() error {
	if p.Alive() {
		return fmt.Errorf("soak: %s: still running", p.Name)
	}
	// Drain the recorded exit of the previous incarnation.
	select {
	case <-p.done:
	default:
	}
	p.logf("proc %s: restarting on %s", p.Name, p.Addr)
	return p.start()
}

// Pid returns the current process ID (0 if not running).
func (p *Proc) Pid() int {
	if p.cmd == nil || p.cmd.Process == nil || !p.Alive() {
		return 0
	}
	return p.cmd.Process.Pid
}

// WriteSecret creates a secret file for a cluster under dir.
func WriteSecret(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "secret")
	// Deterministic content is fine: the secret gates tokens within
	// this throwaway cluster only, and a fixed value keeps restarted
	// and migrated members token-compatible by construction.
	secret := []byte("soak-cluster-secret-0123456789abcdef")
	if err := os.WriteFile(path, secret, 0o600); err != nil {
		return "", err
	}
	return path, nil
}

// Secret returns the secret bytes a WriteSecret file holds.
func Secret(path string) ([]byte, error) { return os.ReadFile(path) }

// groupsSpec renders the -user registration for nGroups groups.
func groupsSpec(user string, nGroups int) string {
	s := user + "="
	for g := 0; g < nGroups; g++ {
		if g > 0 {
			s += ","
		}
		s += strconv.Itoa(g)
	}
	return s
}
