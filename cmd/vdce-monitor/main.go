// Command vdce-monitor logs in to a VDCE server and prints every site's
// resource-performance database as GET /v1/hosts serves it — host
// status, load, memory and machine — optionally refreshing like the
// paper's workload visualization windows.
//
//	vdce-monitor -server http://127.0.0.1:8470
//	vdce-monitor -server http://127.0.0.1:8470 -group g1 -up -watch 2s
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"time"

	"vdce/internal/services"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run parses args, logs in and prints the host table to out: once, or
// every -watch interval until a read fails.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("vdce-monitor", flag.ContinueOnError)
	server := fs.String("server", "http://127.0.0.1:8470", "editor base URL")
	user := fs.String("user", "user_k", "VDCE user")
	pass := fs.String("pass", "vdce", "password")
	group := fs.String("group", "", "restrict to one group")
	upOnly := fs.Bool("up", false, "show only hosts marked up")
	watch := fs.Duration("watch", 0, "refresh interval (0 = print once)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	token, err := login(*server, *user, *pass)
	if err != nil {
		return err
	}
	for {
		hosts, err := readHosts(*server, token)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-28s %-8s %-11s %-7s %-9s %s\n",
			"HOST", "GROUP", "STATUS", "LOAD", "MEM(MB)", "MACHINE")
		for _, h := range hosts {
			if (*group != "" && h.Group != *group) || (*upOnly && h.Status != "up") {
				continue
			}
			fmt.Fprintf(out, "%-28s %-8s %-11s %-7.2f %-9d %s %s (x%.2f)\n",
				h.Host, h.Group, h.Status, h.CPULoad, h.AvailMemBytes>>20, h.Arch, h.OS, h.Speed)
		}
		if *watch <= 0 {
			return nil
		}
		time.Sleep(*watch)
		fmt.Fprintln(out)
	}
}

func login(base, user, pass string) (string, error) {
	body, _ := json.Marshal(map[string]string{"user": user, "password": pass})
	resp, err := http.Post(base+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out struct {
		Token string `json:"token"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if out.Error != "" {
		return "", fmt.Errorf("login: %s", out.Error)
	}
	return out.Token, nil
}

// readHosts fetches GET /v1/hosts: every site's hosts, site by site.
func readHosts(base, token string) ([]services.HostStatus, error) {
	req, err := http.NewRequest("GET", base+"/v1/hosts", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/hosts: %s", resp.Status)
	}
	var out struct {
		Hosts []services.HostStatus `json:"hosts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out.Hosts, nil
}
