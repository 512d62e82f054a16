package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"dsmtherm/internal/jobs"
	"dsmtherm/internal/server"
)

// daemon is dsmthermd run in this process with its own defaults: a
// jobs.Manager journaling to a temporary directory under the work
// directory and a server.Server on a loopback port. The clients it
// hands out are closed by stop, so stop leaves nothing behind: no
// listener, no goroutine of the daemon, no connection, no journal.
type daemon struct {
	srv     *server.Server
	jm      *jobs.Manager
	dir     string
	addr    string
	cancel  context.CancelFunc
	done    chan error
	clients []*client
}

// drainTimeout is the daemon's default graceful-shutdown drain.
const drainTimeout = 15 * time.Second

// startDaemon boots the daemon. With tr set, the benchmark serves
// tr.wrap(srv.Handler()) itself, the same way Server.Run does, so each
// request gets a server-handler span; otherwise Server.Run serves.
func startDaemon(workdir string, tr *tracer) (*daemon, error) {
	dir, err := os.MkdirTemp(workdir, "journal-")
	if err != nil {
		return nil, fmt.Errorf("journal dir: %w", err)
	}
	jm, err := jobs.New(jobs.Config{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("job subsystem: %w", err)
	}
	srv := server.New(server.Config{Jobs: jm})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		jm.Stop()
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{srv: srv, jm: jm, dir: dir, addr: ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() {
		if tr == nil {
			d.done <- srv.Run(ctx, ln)
		} else {
			d.done <- serve(ctx, ln, tr.wrap(srv.Handler()))
		}
	}()
	return d, nil
}

// serve mirrors Server.Run for a wrapped handler: serve until ctx ends,
// then drain.
func serve(ctx context.Context, ln net.Listener, h http.Handler) error {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	<-errc
	return err
}

// stop tears the daemon down in order: stop serving and wait for it,
// stop the job manager, close the client connections, remove the
// journal directory.
func (d *daemon) stop() error {
	d.cancel()
	err := <-d.done
	d.jm.Stop()
	for _, c := range d.clients {
		c.tr.CloseIdleConnections()
	}
	if rerr := os.RemoveAll(d.dir); err == nil {
		err = rerr
	}
	return err
}

// client returns a new client with its own single connection.
func (d *daemon) client(tr *tracer) *client {
	t := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	c := &client{base: "http://" + d.addr, tr: t, hc: &http.Client{Transport: t}, trace: tr}
	d.clients = append(d.clients, c)
	return c
}

// waitReady polls /readyz until it answers 200.
func (d *daemon) waitReady(ctx context.Context, c *client) error {
	for {
		rep, err := c.call(ctx, "readyz", http.MethodGet, "/readyz", nil)
		if err == nil && rep.status == http.StatusOK {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("readyz: %w", ctx.Err())
		case <-time.After(time.Millisecond):
		}
	}
}

// client is one HTTP connection to the daemon.
type client struct {
	base  string
	tr    *http.Transport
	hc    *http.Client
	trace *tracer
}

type reply struct {
	status int
	body   []byte
	rt     time.Duration
}

// call sends one request and reads the whole reply. The round trip,
// from sending to the last body byte, is the client's root span, named
// after the operation kind (a route can carry several kinds, such as
// the small and the medium chipcheck).
func (c *client) call(ctx context.Context, kind, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rid := c.trace.ids.Add(1)
	req.Header.Set(requestIDHeader, strconv.FormatUint(rid, 10))
	start, tstart := time.Now(), c.trace.now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(start)
	if err != nil {
		return reply{}, err
	}
	c.trace.reply(kind, span{Name: "client." + kind, Start: tstart, End: c.trace.now(), ID: rid, ReqID: rid}, len(b))
	return reply{status: resp.StatusCode, body: b, rt: rt}, nil
}

// errStatus reports a non-2xx reply.
func (r reply) errStatus() error {
	if r.status/100 == 2 {
		return nil
	}
	return errors.New("HTTP " + strconv.Itoa(r.status) + ": " + string(bytes.TrimSpace(r.body)))
}
