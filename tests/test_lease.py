"""Lease protocol edge cases: claims, expiry, renewal racing reclaim,
clock skew, and torn lease files (docs/robustness.md, "multi-host
campaigns")."""

import json
import os
import random

import pytest

from repro.errors import ConfigError
from repro.runner.lease import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseManager,
    default_owner,
)


class FakeClock:
    """An injectable wall clock so expiry is exact, not sleep-based."""

    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def manager(tmp_path, owner="alice", ttl=10.0, clock=None, skew=0.0):
    return LeaseManager(
        tmp_path / "leases",
        owner=owner,
        ttl_s=ttl,
        clock=clock or FakeClock(),
        skew_s=skew,
    )


# ---------------------------------------------------------------------------
# Claims
# ---------------------------------------------------------------------------
class TestClaim:
    def test_claim_writes_lease_file(self, tmp_path):
        mgr = manager(tmp_path)
        lease = mgr.try_claim("job1")
        assert lease is not None
        assert lease.owner == "alice"
        assert lease.deadline == pytest.approx(1000.0 + 10.0)
        on_disk = mgr.read("job1")
        assert on_disk == lease

    def test_double_claim_same_key_loses(self, tmp_path):
        mgr = manager(tmp_path)
        assert mgr.try_claim("job1") is not None
        # Same manager, and a fresh manager (another process).
        assert mgr.try_claim("job1") is None
        other = manager(tmp_path, owner="bob")
        assert other.try_claim("job1") is None

    def test_claims_of_distinct_keys_are_independent(self, tmp_path):
        mgr = manager(tmp_path)
        assert mgr.try_claim("job1") is not None
        assert mgr.try_claim("job2") is not None

    def test_default_owner_is_host_pid(self):
        owner = default_owner()
        assert "-" in owner and owner.rsplit("-", 1)[1].isdigit()

    def test_ttl_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError):
            LeaseManager(tmp_path / "leases", ttl_s=0.0)

    def test_read_missing_is_none(self, tmp_path):
        assert manager(tmp_path).read("ghost") is None

    def test_lease_roundtrips_via_dict(self):
        lease = Lease(
            key="k",
            owner="o",
            token="t",
            acquired=1.0,
            deadline=2.0,
            ttl_s=1.0,
            renewals=3,
        )
        assert Lease.from_dict(lease.as_dict()) == lease


# ---------------------------------------------------------------------------
# Expiry
# ---------------------------------------------------------------------------
class TestExpiry:
    def test_not_expired_before_deadline(self, tmp_path):
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        lease = mgr.try_claim("job1")
        clock.advance(9.999)
        assert not mgr.expired(lease)

    def test_expired_exactly_at_deadline(self, tmp_path):
        # Boundary rule: `now >= deadline` counts as expired, so a
        # reclaim at the exact deadline instant succeeds.
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        lease = mgr.try_claim("job1")
        clock.advance(10.0)
        assert mgr.expired(lease)
        assert mgr.reclaim("job1") is not None

    def test_reclaim_refuses_live_lease(self, tmp_path):
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        mgr.try_claim("job1")
        clock.advance(5.0)
        bob = manager(tmp_path, owner="bob", clock=clock)
        assert bob.reclaim("job1") is None

    def test_reclaim_takes_over_expired_lease(self, tmp_path):
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        original = mgr.try_claim("job1")
        clock.advance(11.0)
        bob = manager(tmp_path, owner="bob", clock=clock)
        taken = bob.reclaim("job1")
        assert taken is not None
        assert taken.owner == "bob"
        assert taken.token != original.token
        # The original holder's renewal must now fail.
        assert mgr.renew(original) is None

    def test_reclaim_of_open_key_claims_it(self, tmp_path):
        # reclaim on a missing lease degrades to a plain claim: the
        # "expired" owner may have released between read and rename.
        mgr = manager(tmp_path)
        assert mgr.reclaim("job1") is not None


# ---------------------------------------------------------------------------
# Renewal
# ---------------------------------------------------------------------------
class TestRenewal:
    def test_renew_extends_deadline(self, tmp_path):
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        lease = mgr.try_claim("job1")
        clock.advance(8.0)
        renewed = mgr.renew(lease)
        assert renewed is not None
        assert renewed.deadline == pytest.approx(1008.0 + 10.0)
        assert renewed.renewals == 1
        assert renewed.token == lease.token  # identity is stable

    def test_renew_after_release_fails(self, tmp_path):
        mgr = manager(tmp_path)
        lease = mgr.try_claim("job1")
        assert mgr.release(lease)
        assert mgr.renew(lease) is None

    def test_release_checks_token(self, tmp_path):
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        stale = mgr.try_claim("job1")
        clock.advance(11.0)
        bob = manager(tmp_path, owner="bob", clock=clock)
        bob.reclaim("job1")
        # The evicted owner cannot release bob's lease.
        assert not mgr.release(stale)
        assert mgr.read("job1").owner == "bob"

    def test_renewal_racing_reclaim_yields(self, tmp_path):
        # The dangerous interleaving: the owner renews while a survivor
        # reclaims. Whatever the file order, at most one of them may
        # believe it holds the lease afterwards.
        clock = FakeClock()
        alice = manager(tmp_path, clock=clock)
        lease = alice.try_claim("job1")
        clock.advance(11.0)
        bob = manager(tmp_path, owner="bob", clock=clock)
        taken = bob.reclaim("job1")
        assert taken is not None
        renewed = alice.renew(lease)  # loses: token changed under it
        assert renewed is None
        assert bob.renew(taken) is not None


# ---------------------------------------------------------------------------
# Clock skew
# ---------------------------------------------------------------------------
class TestClockSkew:
    def test_fast_claimant_leases_expire_early(self, tmp_path):
        # A claimant whose clock runs 30s fast writes deadlines 30s in
        # the (true) future's past — a reclaimer with a correct clock
        # sees them expire 30s early. Liveness is preserved; only
        # duplicate work is risked, and publishing is first-wins.
        clock = FakeClock()
        fast = manager(tmp_path, owner="fast", clock=clock, skew=30.0)
        fast.try_claim("job1")
        sane = manager(tmp_path, owner="sane", clock=clock)
        clock.advance(0.0)
        # fast's deadline = 1000 + 30 + 10; sane's now = 1000.
        assert not sane.expired(sane.read("job1"))
        clock.advance(41.0)
        assert sane.reclaim("job1") is not None

    def test_slow_claimant_reclaimed_while_it_thinks_alive(self, tmp_path):
        clock = FakeClock()
        slow = manager(tmp_path, owner="slow", clock=clock, skew=-30.0)
        lease = slow.try_claim("job1")
        sane = manager(tmp_path, owner="sane", clock=clock)
        # slow wrote deadline 1000 - 30 + 10 = 980 < now: instantly
        # reclaimable by a correct clock.
        assert sane.expired(sane.read("job1"))
        assert sane.reclaim("job1") is not None
        # slow still thinks it holds the lease, but renewal tells it.
        assert slow.renew(lease) is None


# ---------------------------------------------------------------------------
# Torn lease files
# ---------------------------------------------------------------------------
class TestTornLease:
    def test_torn_lease_reads_as_synthetic(self, tmp_path):
        mgr = manager(tmp_path)
        mgr.try_claim("job1")
        mgr.path("job1").write_text('{"owner": "al', encoding="utf-8")
        lease = mgr.read("job1")
        assert lease is not None
        assert lease.owner == "?torn"

    def test_torn_lease_eventually_reclaimable(self, tmp_path):
        # A torn lease ages from this manager's first sighting, on its
        # own clock, so unreadable claims cannot wedge a key forever.
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        mgr.try_claim("job1")
        mgr.path("job1").write_text("not json", encoding="utf-8")
        lease = mgr.read("job1")
        assert lease.owner == "?torn"
        clock.advance(9.999)
        assert not mgr.expired(mgr.read("job1"))
        assert mgr.reclaim("job1") is None
        clock.advance(0.001)
        assert mgr.expired(mgr.read("job1"))
        taken = mgr.reclaim("job1")
        assert taken is not None
        assert json.loads(
            mgr.path("job1").read_text(encoding="utf-8")
        )["owner"] == "alice"


    def test_replaced_torn_lease_ages_afresh(self, tmp_path):
        # A different torn file under the same key is a new sighting:
        # it gets its own full TTL, not the remainder of the old one.
        clock = FakeClock()
        mgr = manager(tmp_path, clock=clock)
        mgr.path("job1").write_text("torn once", encoding="utf-8")
        assert mgr.read("job1").deadline == pytest.approx(1010.0)
        clock.advance(8.0)
        other = tmp_path / "other"
        other.write_text("torn twice", encoding="utf-8")
        os.replace(other, mgr.path("job1"))
        assert mgr.read("job1").deadline == pytest.approx(1018.0)


# ---------------------------------------------------------------------------
# Property: randomized interleavings never yield two believing holders
# ---------------------------------------------------------------------------
class TestLeaseProperties:
    @pytest.mark.parametrize("seed", range(8))
    def test_single_believing_holder_invariant(self, tmp_path, seed):
        """Drive N managers through random claim/renew/release/reclaim/
        expiry steps; after every step, at most one manager holds a
        lease whose token matches the file — the invariant the store's
        publish-or-discard decision rests on."""
        rng = random.Random(1234 + seed)
        clock = FakeClock()
        managers = [
            manager(
                tmp_path,
                owner=f"m{i}",
                ttl=5.0,
                clock=clock,
                skew=rng.choice([0.0, 0.0, 2.0, -2.0]),
            )
            for i in range(3)
        ]
        held = {}  # manager index -> Lease it believes it holds
        for _ in range(60):
            op = rng.randrange(5)
            i = rng.randrange(len(managers))
            mgr = managers[i]
            if op == 0 and i not in held:
                lease = mgr.try_claim("k")
                if lease is not None:
                    held[i] = lease
            elif op == 1 and i in held:
                renewed = mgr.renew(held[i])
                if renewed is None:
                    del held[i]  # learned it lost the lease
                else:
                    held[i] = renewed
            elif op == 2 and i in held:
                mgr.release(held.pop(i))
            elif op == 3:
                taken = mgr.reclaim("k")
                if taken is not None:
                    held.pop(i, None)
                    held[i] = taken
            else:
                clock.advance(rng.uniform(0.0, 4.0))
            # Invariant: tokens believed-held that match the file.
            on_disk = managers[0].read("k")
            matching = [
                j
                for j, lease in held.items()
                if on_disk is not None and lease.token == on_disk.token
            ]
            assert len(matching) <= 1, (
                f"seed {seed}: {len(matching)} managers believe they "
                f"hold the same live token"
            )
