module loggrep/bench

go 1.22

require loggrep v0.0.0

replace loggrep => ../
