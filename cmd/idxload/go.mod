module indexlaunch/cmd/idxload

go 1.22

require indexlaunch v0.0.0

replace indexlaunch => ../..
