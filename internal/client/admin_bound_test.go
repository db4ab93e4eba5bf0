package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"zerberr/internal/server"
)

// TestAdminAnswersAreBounded: an admin call goes through doOnce like
// every other, so a peer that streams past the call's bound, or
// announces a length beyond it, is cut off — not read to its end.
func TestAdminAnswersAreBounded(t *testing.T) {
	const bound, streamed = 64 << 10, 256 << 20
	var sent int
	var sawMAC string
	streams := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawMAC = r.Header.Get("X-Zerber-Admin")
		// No Content-Length: chunked, until the client hangs up — or far
		// past what socket buffers hold, so a client that reads it all
		// ends the test too.
		chunk := make([]byte, 64<<10)
		for sent = 0; sent < streamed; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			w.(http.Flusher).Flush()
		}
	}))
	defer streams.Close()
	h := HTTP{BaseURL: streams.URL, AdminMAC: "the-mac"}
	_, _, err := h.doOnce(context.Background(), call{method: http.MethodGet, path: "/v3/admin/snapshot", admin: true, maxResponse: bound})
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("streaming past the bound: %v, want the bound's refusal", err)
	}
	streams.Close() // waits for the handler: sent and sawMAC are final
	if sawMAC != "the-mac" {
		t.Fatalf("admin MAC header arrived as %q", sawMAC)
	}
	if sent >= streamed {
		t.Fatalf("client read all %d bytes of a response bounded at %d", sent, bound)
	}

	// The real calls carry the import bound: a peer announcing one byte
	// more is refused on the announcement, whatever it then sends.
	lies := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Zerber-Seq: 1\r\n\r\nshort", int64(server.MaxImportBytes)+1)
		buf.Flush()
	}))
	defer lies.Close()
	h = HTTP{BaseURL: lies.URL, AdminMAC: "the-mac"}
	if _, err := h.ExportSnapshot(context.Background()); err == nil || !strings.Contains(err.Error(), "announces") {
		t.Fatalf("ExportSnapshot from a peer lying in Content-Length: %v, want the bound's refusal", err)
	}
	if _, err := h.TailSince(context.Background(), 0); err == nil || !strings.Contains(err.Error(), "announces") {
		t.Fatalf("TailSince from a peer lying in Content-Length: %v, want the bound's refusal", err)
	}
}
