// Command vdce-monitor connects to a Site Manager's RPC endpoint and
// prints the site's resource-performance database — host status, load,
// and memory — optionally refreshing like the paper's workload
// visualization windows.
//
//	vdce-monitor -addr 127.0.0.1:41234
//	vdce-monitor -addr 127.0.0.1:41234 -watch 2s
package main

import (
	"flag"
	"fmt"
	"log"
	"net/rpc"
	"time"

	"vdce/internal/protocol"
)

func main() {
	addr := flag.String("addr", "", "Site Manager RPC address (required)")
	group := flag.String("group", "", "restrict to one group")
	upOnly := flag.Bool("up", false, "show only hosts marked up")
	watch := flag.Duration("watch", 0, "refresh interval (0 = print once)")
	flag.Parse()
	if *addr == "" {
		log.Fatal("vdce-monitor: -addr is required")
	}
	client, err := rpc.Dial("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	for {
		var list protocol.ResourceList
		err := client.Call(protocol.SiteServiceName+".Resources",
			protocol.ResourceQuery{Group: *group, UpOnly: *upOnly}, &list)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %-8s %-11s %-7s %-9s %s\n",
			"HOST", "GROUP", "STATUS", "LOAD", "MEM(MB)", "MACHINE")
		for _, h := range list.Hosts {
			fmt.Printf("%-28s %-8s %-11s %-7.2f %-9d %s %s (x%.2f)\n",
				h.HostName, h.Group, h.Status, h.CPULoad, h.AvailMem>>20,
				h.ArchType, h.OSType, h.SpeedFactor)
		}
		if *watch <= 0 {
			return
		}
		time.Sleep(*watch)
		fmt.Println()
	}
}
