"""A job's deduplication key is computed once, when it is admitted.

``JobRequest`` is frozen, but its ``params`` mapping is not: a caller can
mutate it after ``submit``. The runtime keys its active jobs by the
request's dedup key as it was at admission, and the job drops that same
key when it ends, so a later mutation cannot strand the entry.
"""

from __future__ import annotations

import asyncio

from repro.service import JobRequest, JobRuntime


def test_a_job_whose_params_change_after_submit_drops_its_own_key():
    async def main():
        runtime = JobRuntime()
        runtime.register_handler("echo", lambda params, ctx: params["x"])
        params = {"x": 1}
        async with runtime:
            job = runtime.submit(JobRequest(kind="echo", params=params))
            key = job.request.dedup_key()
            params["x"] = 2
            result = await job.wait()
        return runtime, job, key, result

    runtime, job, key, result = asyncio.run(main())
    assert key != job.request.dedup_key()
    assert result == 2
    assert runtime._active_by_key == {}


def test_a_job_that_opted_out_of_dedup_has_no_key():
    async def main():
        runtime = JobRuntime()
        runtime.register_handler("echo", lambda params, ctx: params["x"])
        async with runtime:
            first = runtime.submit(JobRequest(kind="echo", params={"x": 1}, dedup=False))
            second = runtime.submit(JobRequest(kind="echo", params={"x": 1}))
            third = runtime.submit(JobRequest(kind="echo", params={"x": 1}))
            await asyncio.gather(first.wait(), second.wait(), third.wait())
        return first, second, third

    first, second, third = asyncio.run(main())
    assert first.dedup_key is None and first is not second
    assert third is second  # deduplicated onto the one job that keyed itself
