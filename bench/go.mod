module semandaq/bench

go 1.24

require semandaq v0.0.0

replace semandaq => ../
