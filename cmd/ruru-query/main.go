// Command ruru-query is a small CLI client for a running ruru daemon's HTTP
// API — the Grafana-panel queries from a terminal.
//
// Examples:
//
//	ruru-query -addr localhost:8080 stats
//	ruru-query -addr localhost:8080 -start 0 -end 5m -agg mean,median,p99 -group src_city query
//	ruru-query -addr localhost:8080 anomalies
//	ruru-query -addr localhost:8080 -n 5 arcs
//
// Against a federation aggregator (ruru -fed-listen) every series
// carries the probe tag, so fleet queries are ordinary tag queries:
//
//	ruru-query -addr agg:8080 -group probe query            # one series per probe
//	ruru-query -addr agg:8080 -where probe:akl-tap-1 query  # one probe only
//	ruru-query -addr agg:8080 -group probe tags             # list the fleet
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"time"
)

func main() {
	var (
		addr   = flag.String("addr", "localhost:8080", "ruru daemon address")
		start  = flag.Duration("start", 0, "window start (virtual time offset)")
		end    = flag.Duration("end", time.Hour, "window end (virtual time offset)")
		window = flag.Duration("window", 0, "bucket width (0 = single bucket)")
		agg    = flag.String("agg", "count,mean,median", "aggregations")
		group  = flag.String("group", "", "group-by tag key")
		where  = flag.String("where", "", "filter, key:value")
		field  = flag.String("field", "total_ms", "field to aggregate")
		resol  = flag.String("resolution", "", `query resolution: "auto" (planner picks a rollup tier), "raw", or a tier width like 10s; the server reports the serving tier in each result's "tier" field`)
		n      = flag.Int("n", 10, "arcs to fetch")
		pretty = flag.Bool("pretty", true, "indent JSON output")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ruru-query [flags] stats|query|tags|arcs|anomalies")
		os.Exit(2)
	}

	var u string
	switch flag.Arg(0) {
	case "stats":
		u = fmt.Sprintf("http://%s/api/stats", *addr)
	case "query":
		v := url.Values{}
		v.Set("field", *field)
		v.Set("start", fmt.Sprint(start.Nanoseconds()))
		v.Set("end", fmt.Sprint(end.Nanoseconds()))
		if *window > 0 {
			v.Set("window", fmt.Sprint(window.Nanoseconds()))
		}
		v.Set("agg", *agg)
		if *group != "" {
			v.Set("group_by", *group)
		}
		if *where != "" {
			v.Set("where", *where)
		}
		if *resol != "" {
			v.Set("resolution", *resol)
		}
		u = fmt.Sprintf("http://%s/api/query?%s", *addr, v.Encode())
	case "tags":
		if *group == "" {
			log.Fatal("tags requires -group <key>")
		}
		u = fmt.Sprintf("http://%s/api/tags?key=%s", *addr, url.QueryEscape(*group))
	case "arcs":
		u = fmt.Sprintf("http://%s/api/arcs?n=%d", *addr, *n)
	case "anomalies":
		u = fmt.Sprintf("http://%s/api/anomalies", *addr)
	default:
		log.Fatalf("unknown subcommand %q", flag.Arg(0))
	}

	resp, err := http.Get(u)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("%s: %s", resp.Status, body)
	}
	if *pretty {
		var v any
		if err := json.Unmarshal(body, &v); err == nil {
			out, _ := json.MarshalIndent(v, "", "  ")
			fmt.Println(string(out))
			return
		}
	}
	fmt.Println(string(body))
}
