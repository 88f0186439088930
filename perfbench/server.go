package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"unigen/internal/obs"
	"unigen/internal/service"
)

// server is one in-process unigend: a service.Service behind
// service.NewHandler on a loopback listener, with its persistent store
// in a private directory.
type server struct {
	svc      *service.Service
	hs       *httptest.Server
	client   *http.Client
	storeDir string
}

// startServer builds a fresh service with an empty store under dir.
// ring keeps every request in the slow-request ring, so the span tree
// of each /count (which the response does not echo) can be read back
// from GET /debug/requests.
func startServer(w workload, dir string, ring bool) (*server, error) {
	storeDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{CacheSize: w.cacheSize, StoreDir: storeDir, ApproxMCRounds: w.amcRounds}
	if ring {
		cfg.SlowRequest = time.Nanosecond
		cfg.DebugRequests = 1 << 14
	}
	svc, err := service.New(cfg)
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	hs := httptest.NewServer(service.NewHandler(svc))
	return &server{
		svc:      svc,
		hs:       hs,
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		storeDir: storeDir,
	}, nil
}

// close drains the service (flushing the store's write-behind queue),
// stops the listener once every handler returned, and deletes the store.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.svc.Close(ctx)
	s.client.CloseIdleConnections()
	s.hs.Close()
	if rerr := os.RemoveAll(s.storeDir); err == nil {
		err = rerr
	}
	return err
}

// post sends one JSON request and decodes a 200 reply into out. The
// returned duration is the client round trip: from the first byte sent
// to the reply fully read and decoded.
func (s *server) post(path string, body, out any) (time.Duration, string, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	start := time.Now()
	resp, err := s.client.Post(s.hs.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, "", fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return 0, "", fmt.Errorf("POST %s: decoding reply: %w", path, err)
	}
	return time.Since(start), resp.Header.Get(service.TraceHeader), nil
}

func (s *server) get(path string, out any) error {
	resp, err := s.client.Get(s.hs.URL + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func (s *server) stats() (service.StatsHTTPResponse, error) {
	var st service.StatsHTTPResponse
	err := s.get("/stats", &st)
	return st, err
}

func (s *server) debugRequests() ([]obs.RequestRecord, error) {
	var recs []obs.RequestRecord
	err := s.get("/debug/requests", &recs)
	return recs, err
}

func (s *server) sample(in input, n, workers int, seed uint64, trace bool) (service.SampleHTTPResponse, time.Duration, string, error) {
	var out service.SampleHTTPResponse
	d, id, err := s.post("/sample", service.SampleHTTPRequest{Formula: in.text, N: n, Seed: seed, Workers: workers, Trace: trace}, &out)
	return out, d, id, err
}

func (s *server) count(in input) (service.CountHTTPResponse, time.Duration, string, error) {
	var out service.CountHTTPResponse
	d, id, err := s.post("/count", service.CountHTTPRequest{Formula: in.text}, &out)
	return out, d, id, err
}
