#!/usr/bin/env python3
"""Regenerates this fixture with the LAST gridschedd THAT WROTE JSON JOURNAL
RECORDS (the PR 15 binary, commit a3c0a07). Not run by any test: the files
beside it are its committed output, and the point of them is that a binary
which no longer exists wrote them.

    go build -o /tmp/old-gsd ./cmd/gridschedd        # at commit a3c0a07
    python3 generate.py /tmp/old-gsd <this directory>

What it does, all over HTTP against real daemons:

 1. Leader on an empty data dir: submit jA (combined.2, tenant ta, weight 2)
    and jB (workqueue), run a few of jA's tasks, kill -9.
 2. Restart it: recovery compacts, which leaves the version-2 manifest and
    the workload-<job>.bin files of this fixture, and an empty log. A standby
    (also the old binary) attaches.
 3. Everything the log tail should hold, journaled as JSON: a submit with
    `requires` and a deadline, two quota overrides, dispatches, successful and
    failed reports, a lease left to expire, a small job run to completion and
    deleted, another left completed.
 4. Record the standby's /v1/jobs and /v1/tenants (expect-standby-*.json),
    kill -9 both. The leader's data dir is the fixture: data/.
 5. Start the old binary on a copy of data/ and record what IT recovers to:
    /v1/jobs and /v1/tenants (expect-*.json), then the order in which one
    worker drains everything that is left (expect-drain.json).
"""
import json, os, shutil, signal, socket, subprocess, sys, tempfile, time, urllib.request

GSD, OUT = sys.argv[1], os.path.abspath(sys.argv[2])
FLAGS = ["-sites", "2", "-workers", "2", "-capacity", "64", "-lease", "1s",
         "-snapshot-every", "1000000", "-fsync", "batch"]


def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def call(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req) as resp:
        raw = resp.read()
    return raw, (json.loads(raw) if raw else None)


def start(data_dir, *extra):
    port = free_port()
    base = "http://127.0.0.1:%d" % port
    proc = subprocess.Popen([GSD, "-addr", "127.0.0.1:%d" % port, "-data-dir", data_dir, *FLAGS, *extra],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    for _ in range(200):
        try:
            if call(base, "GET", "/readyz")[1]["status"] == "ready":
                return proc, base
        except Exception:
            pass
        time.sleep(0.05)
    raise SystemExit("daemon on %s never became ready" % data_dir)


def kill9(proc):
    proc.send_signal(signal.SIGKILL)
    proc.wait()


def workload(name, tasks, files_per, num_files):
    # Overlapping windows of neighbouring files, so the data-aware schedulers
    # have something to decide.
    return {"name": name, "numFiles": num_files, "tasks": [
        {"id": t, "files": [(t * 2 + f) % num_files for f in range(files_per)]} for t in range(tasks)]}


def submit(base, **req):
    return call(base, "POST", "/v1/jobs", req)[1]["jobId"]


def register(base, site, tags=()):
    return call(base, "POST", "/v1/workers", {"site": site, "tags": list(tags)})[1]["workerId"]


def pull(base, wid):
    resp = call(base, "POST", "/v1/workers/%s/pull" % wid, {"waitMillis": 0})[1]
    return resp.get("assignment") if resp["status"] == "assigned" else None


def report(base, wid, a, outcome):
    return call(base, "POST", "/v1/assignments/%s/report" % a["id"], {"workerId": wid, "outcome": outcome})[1]


work = tempfile.mkdtemp(prefix="legacy-fixture-")
leader_dir, standby_dir = os.path.join(work, "leader"), os.path.join(work, "standby")

# 1
leader, base = start(leader_dir)
jA = submit(base, name="astro", algorithm="combined.2", seed=11, tenant="ta", weight=2,
            submissionId="sub-astro", workload=workload("astro", 24, 4, 40))
jB = submit(base, name="plain", algorithm="workqueue", workload=workload("plain", 10, 2, 16))
w0 = register(base, 0)
for _ in range(5):
    a = pull(base, w0)
    report(base, w0, a, "success")
held = pull(base, w0)  # in flight at the crash
kill9(leader)

# 2
leader, base = start(leader_dir)
standby, sbase = start(standby_dir, "-follow", base)

# 3
jC = submit(base, name="tagged", algorithm="rest", seed=5, tenant="tb", requires=["gpu"],
            deadlineMillis=4102444800000, workload=workload("tagged", 12, 3, 20))
call(base, "PUT", "/v1/tenants/ta", {"maxInFlight": 3})
call(base, "PUT", "/v1/tenants/tc", {"maxInFlight": 5})
jD = submit(base, name="tiny", algorithm="workqueue", tenant="td", workload=workload("tiny", 2, 1, 4))
jE = submit(base, name="done", algorithm="overlap", seed=3, tenant="tb", workload=workload("done", 3, 2, 8))
gpu = register(base, 1, ["gpu"])
cpu = register(base, 0)
mute = register(base, 1)
outcomes = ["success", "success", "failure", "success"]
for i in range(40):
    for wid in (gpu, cpu):
        a = pull(base, wid)
        if a is not None:
            report(base, wid, a, outcomes[i % len(outcomes)])
    done = {j["id"]: j["state"] for j in call(base, "GET", "/v1/jobs")[1]}
    if done[jD] == "completed" and done[jE] == "completed":
        break
else:
    raise SystemExit("tiny jobs did not complete: %r" % done)
call(base, "DELETE", "/v1/jobs/" + jD)
assert pull(base, mute) is not None  # ...and never report it
time.sleep(2.0)                       # lease 1s: the sweeper expires it, and the idle workers
gpu, cpu = register(base, 1, ["gpu"]), register(base, 0)
assert pull(base, gpu) is not None    # two more in flight at the crash
assert pull(base, cpu) is not None

# 4
for _ in range(100):
    ready = call(sbase, "GET", "/readyz")[1]
    if ready.get("lastLsn") == call(base, "GET", "/readyz")[1]["lastLsn"]:
        break
    time.sleep(0.05)
else:
    raise SystemExit("standby never caught up: %r" % ready)
standby_jobs, standby_tenants = call(sbase, "GET", "/v1/jobs")[0], call(sbase, "GET", "/v1/tenants")[0]
kill9(standby)
kill9(leader)

shutil.rmtree(os.path.join(OUT, "data"), ignore_errors=True)
shutil.copytree(leader_dir, os.path.join(OUT, "data"))
open(os.path.join(OUT, "expect-standby-jobs.json"), "wb").write(standby_jobs)
open(os.path.join(OUT, "expect-standby-tenants.json"), "wb").write(standby_tenants)

# 5
leader, base = start(leader_dir)
open(os.path.join(OUT, "expect-jobs.json"), "wb").write(call(base, "GET", "/v1/jobs")[0])
open(os.path.join(OUT, "expect-tenants.json"), "wb").write(call(base, "GET", "/v1/tenants")[0])
wid = register(base, 0, ["gpu"])
order = []
while True:
    a = pull(base, wid)
    if a is None:
        break
    order.append("%s/%d" % (a["jobId"], a["task"]["id"]))
    report(base, wid, a, "success")
assert all(j["state"] == "completed" for j in call(base, "GET", "/v1/jobs")[1])
json.dump(order, open(os.path.join(OUT, "expect-drain.json"), "w"))
kill9(leader)
shutil.rmtree(work)
print("fixture written to", OUT, "- drained", len(order), "tasks")
