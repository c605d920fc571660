package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"querypricing/internal/loadgen"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    loadgen.Mix
		wantErr bool
	}{
		{in: ""},
		{in: "quote=0.9, batch=0.1", want: loadgen.Mix{Quote: 0.9, Batch: 0.1}},
		{in: "quote=1,update=0,purchase=2", want: loadgen.Mix{Quote: 1, Purchase: 2}},
		{in: "quote", wantErr: true},
		{in: "quote=x", wantErr: true},
		{in: "sell=1", wantErr: true},
		{in: "quote=NaN,batch=0.05", wantErr: true},
		{in: "quote=Inf", wantErr: true},
		{in: "quote=-1,batch=1", wantErr: true},
		{in: "quote=0", wantErr: true},
		{in: "quote=0,batch=0", wantErr: true},
	} {
		got, err := parseMix(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseMix(%q) = %+v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseMix(%q) = %+v, %v; want %+v", tc.in, got, err, tc.want)
		}
	}
}

// TestCompactRefusesLoadAddr: the compact profile compares two
// in-process boots, so pointing it at a running server is an error
// raised before any request reaches that server.
func TestCompactRefusesLoadAddr(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
	}))
	defer ts.Close()
	r := &runner{seed: 1, loadRate: 50, loadDur: time.Second, loadAddr: ts.URL}
	if err := r.runLoad("compact"); err == nil {
		t.Fatal("compact with -load-addr succeeded")
	}
	if n := hits.Load(); n != 0 {
		t.Fatalf("compact with -load-addr sent %d requests", n)
	}
}
