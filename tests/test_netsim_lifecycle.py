"""Listener and server lifecycle details."""

import pytest

from repro.netsim.http import HttpServer, http_get
from repro.netsim.network import Network, NetworkError
from repro.netsim.simulator import Simulator


class TestListenerLifecycle:
    def test_unlisten_refuses_new_connections(self):
        sim = Simulator(2)
        net = Network(sim)
        client = net.create_node("c")
        server = net.create_node("s")
        net.register_dns("x.example", server)
        http = HttpServer(server, {"/": b"up"})

        def main(thread):
            first = yield from http_get(
                thread, net, client, "https://x.example/")
            http.close()
            with pytest.raises(NetworkError):
                yield from http_get(thread, net, client, "https://x.example/")
            return first

        response = sim.run_until_done(sim.spawn(main))
        assert response.body == b"up"

    def test_double_bind_rejected(self):
        sim = Simulator(3)
        net = Network(sim)
        node = net.create_node("n")
        node.listen(80, lambda conn: None)
        with pytest.raises(ValueError):
            node.listen(80, lambda conn: None)
        node.unlisten(80)
        node.listen(80, lambda conn: None)   # rebind after unlisten is fine

    def test_add_resource_live(self):
        sim = Simulator(4)
        net = Network(sim)
        client = net.create_node("c")
        server = net.create_node("s")
        net.register_dns("y.example", server)
        http = HttpServer(server, {})

        def main(thread):
            missing = yield from http_get(
                thread, net, client, "https://y.example/new")
            http.add_resource("/new", b"now present")
            found = yield from http_get(
                thread, net, client, "https://y.example/new")
            return missing.status, found.body

        status, body = sim.run_until_done(sim.spawn(main))
        assert status == 404 and body == b"now present"
