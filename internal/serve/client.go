package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

// Client is a minimal JSON-over-HTTP caller for the API NewHandler
// serves.
type Client struct {
	// Base is the daemon's base URL, without a trailing slash.
	Base string
	// HTTP sends the requests; the zero value uses http.DefaultTransport.
	HTTP http.Client
}

// Call sends method to Base+path with body encoded as JSON (no body
// when nil) and decodes the response into into (skipped when nil). A
// status of 300 or above is an error carrying the server's error message
// when the body has one.
func (c *Client) Call(method, path string, body, into any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, c.Base+path, rd)
	if err != nil {
		return err
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.HTTP.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("%s %s: %s (HTTP %d)", method, path, eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
	}
	if into == nil {
		return nil
	}
	return json.Unmarshal(data, into)
}
