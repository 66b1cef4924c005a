package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"wtftm/internal/wire"
)

// buildWtfd compiles cmd/wtfd from the checkout at root into buildDir and
// returns the binary's path. The Go build cache is kept under buildDir too
// (run.sh sets it; a bare `go run` inherits the user's).
func buildWtfd(root, buildDir string) (string, error) {
	bin := filepath.Join(buildDir, "wtfd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/wtfd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/wtfd: %v\n%s", err, out)
	}
	return bin, nil
}

// child is one running wtfd.
type child struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed when the process has been waited for

	mu   sync.Mutex
	tail bytes.Buffer // stderr after the banner, for error reports
}

// wtfdProcs is wtfd's GOMAXPROCS: one P on the one CPU it shares with the
// generator (see pinToOneCPU, whose mask the child inherits).
const wtfdProcs = 1

// startWtfd starts bin on 127.0.0.1:0 with args and returns once its
// "serving on" banner gives the bound address. The child is killed if the
// benchmark dies.
func startWtfd(bin string, args []string) (*child, error) {
	full := append([]string{"-listen", "127.0.0.1:0"}, args...)
	c := &child{cmd: exec.Command(bin, full...), done: make(chan struct{})}
	c.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", wtfdProcs))
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	banner := make(chan string, 1)
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			if !found {
				if _, rest, ok := strings.Cut(line, "serving on "); ok {
					found = true
					banner <- strings.Fields(rest)[0]
					continue
				}
			}
			c.mu.Lock()
			if c.tail.Len() < 8<<10 {
				c.tail.WriteString(line + "\n")
			}
			c.mu.Unlock()
		}
		if !found {
			close(banner)
		}
		c.cmd.Wait()
	}()
	select {
	case addr, ok := <-banner:
		if !ok {
			<-c.done
			return nil, fmt.Errorf("wtfd exited before serving: %s", c.stderrTail())
		}
		c.addr = addr
		return c, nil
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, errors.New("wtfd: no serving banner within 60s")
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tail.String()
}

// kill is kill -9 and waits for the process to be gone.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// stop asks for a graceful drain and falls back to kill -9.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.kill()
	}
}

// rawConn is a plain wire connection for set-up, STATS and checks, one
// request at a time or a short pipeline.
type rawConn struct {
	nc   net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	buf  []byte
	rbuf []byte
	id   uint32
}

func dialRaw(addr string) (*rawConn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &rawConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10), bw: bufio.NewWriterSize(nc, 64<<10)}, nil
}

func (c *rawConn) close() { c.nc.Close() }

// send queues one request frame; flush pushes the queue out.
func (c *rawConn) send(req *wire.Request) error {
	c.id++
	req.ID = c.id
	var err error
	if c.buf, err = appendFrame(c.buf[:0], req); err != nil {
		return err
	}
	_, err = c.bw.Write(c.buf)
	return err
}

func (c *rawConn) flush() error { return c.bw.Flush() }

// recv reads one response into resp.
func (c *rawConn) recv(resp *wire.Response) error {
	c.nc.SetReadDeadline(time.Now().Add(30 * time.Second))
	payload, err := wire.ReadFrame(c.br, c.rbuf)
	if err != nil {
		return err
	}
	c.rbuf = payload[:0]
	return wire.DecodeResponseInto(resp, payload)
}

// call is one depth-1 round trip.
func (c *rawConn) call(req *wire.Request, resp *wire.Response) error {
	if err := c.send(req); err != nil {
		return err
	}
	if err := c.flush(); err != nil {
		return err
	}
	return c.recv(resp)
}

// ping reports whether addr answers a PING.
func ping(addr string) bool {
	c, err := dialRaw(addr)
	if err != nil {
		return false
	}
	defer c.close()
	var resp wire.Response
	return c.call(&wire.Request{Op: wire.OpPing}, &resp) == nil && resp.Result.Status == wire.StatusOK
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}
